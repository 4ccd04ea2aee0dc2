package netsim

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

// TestLinkTableInternsConfigs: the link table holds each distinct fault config
// once. A rate installed on every link is one entry, rate 0 returns a link to
// the fault-free entry, and NaN, which no float comparison matches, interns
// once by its bits.
func TestLinkTableInternsConfigs(t *testing.T) {
	const n = 4
	net := newLossyNet(t, n, 1)
	b := net.omission
	if b.links != nil {
		t.Fatal("the link table was made before any fault or cut")
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				net.SetDropRate(i, j, 0.2)
			}
		}
	}
	if len(b.cfgs) != 2 {
		t.Fatalf("one rate on %d links made %d configs, want 2 (fault-free and 0.2)", n*(n-1), len(b.cfgs))
	}
	net.SetDropRate(0, 1, 0)
	net.SetDropRate(0, 2, 0)
	if e := b.link(0, 1); e != 0 {
		t.Fatalf("link 0->1 with its rate cleared has entry %#x, want 0", e)
	}
	nan := math.NaN()
	net.SetReorderRate(0, 1, nan)
	net.SetReorderRate(0, 2, nan)
	if len(b.cfgs) != 3 || b.link(0, 1) != b.link(0, 2) {
		t.Fatalf("NaN on two links: %d configs, entries %#x and %#x; want 3 configs and one entry",
			len(b.cfgs), b.link(0, 1), b.link(0, 2))
	}
	checkErr(t, net)
}

// TestLinkTableCutIndependentOfFaults: a link's cut bit and its faults are
// set and cleared apart, and a new incarnation of a slot clears the cuts on
// its links but keeps their faults.
func TestLinkTableCutIndependentOfFaults(t *testing.T) {
	net := newLossyNet(t, 3, 1)
	b := net.omission
	check := func(when string, from, to int, cut bool, drop float64) {
		t.Helper()
		e := b.link(from, to)
		if got := e&linkCut != 0; got != cut {
			t.Errorf("%s: link %d->%d cut = %v, want %v", when, from, to, got, cut)
		}
		if got := b.cfgs[e&^linkCut].drop; got != drop {
			t.Errorf("%s: link %d->%d drop = %v, want %v", when, from, to, got, drop)
		}
	}
	net.SetDropRate(0, 1, 0.3)
	net.Partition([]int{1})
	check("partitioned", 0, 1, true, 0.3)
	check("partitioned", 1, 0, true, 0)
	net.SetDropRate(0, 1, 0.5)
	check("rate changed while cut", 0, 1, true, 0.5)
	net.SetDropRate(0, 1, 0)
	check("rate cleared while cut", 0, 1, true, 0)
	net.SetDropRate(0, 1, 0.5)
	net.SetDropRate(0, 2, 0.4)
	net.SetEpoch(1, 2)
	check("new epoch", 0, 1, false, 0.5)
	check("new epoch", 1, 2, false, 0)
	check("new epoch", 0, 2, false, 0.4)
	net.Partition([]int{0})
	net.Heal([]int{0})
	check("healed", 0, 1, false, 0.5)
	check("healed", 0, 2, false, 0.4)
	checkErr(t, net)
}

// TestLinkTableInstallAllocs: installing a rate on all 65 k links of a
// 256-node network makes the table, the config list and its index, and
// nothing per link.
func TestLinkTableInstallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	const n, maxAllocs = 256, 8
	net := newLossyNet(t, n, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				net.SetDropRate(i, j, 0.2)
				net.SetDropRate(j, i, 0.2)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > maxAllocs {
		t.Errorf("installing one rate on %d links made %d allocations, want at most %d", n*(n-1), got, maxAllocs)
	}
	checkErr(t, net)
}

// TestLinkTableFullReachesErr: a config the full table cannot index leaves
// its link as it was and is reported through Err; a config the table holds
// still installs.
func TestLinkTableFullReachesErr(t *testing.T) {
	const n = 182 // n(n-1) links hold maxConfigs distinct rates
	net := newLossyNet(t, n, 1)
	rate := func(k int) float64 { return float64(k+1) / (4 * maxConfigs) }
	k := 0
	var from, to int
	for i := 0; i < n && k < maxConfigs; i++ {
		for j := 0; j < n && k < maxConfigs; j++ {
			if i == j {
				continue
			}
			from, to = i, j
			net.SetDropRate(i, j, rate(k))
			if k++; k < maxConfigs {
				checkErr(t, net)
			}
		}
	}
	err := net.Err()
	if err == nil || !strings.Contains(err.Error(), "distinct fault configs") {
		t.Fatalf("Err() = %v after %d distinct configs, want the full link table", err, k)
	}
	if e := net.omission.link(from, to); e != 0 {
		t.Errorf("link %d->%d took entry %#x from a full table, want it unchanged (0)", from, to, e)
	}
	net.SetDropRate(from, to, rate(0))
	if got := net.omission.cfgs[net.omission.link(from, to)&^linkCut].drop; got != rate(0) {
		t.Errorf("link %d->%d drop = %v, want the interned %v", from, to, got, rate(0))
	}
}
