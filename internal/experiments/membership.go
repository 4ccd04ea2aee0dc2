package experiments

import (
	"encoding/binary"
	"fmt"

	"imitator/internal/costmodel"
	"imitator/internal/gossip"
	"imitator/internal/netsim"
	"imitator/internal/rng"
)

// The membership experiment compares the two failure detectors in isolation
// — no graph, no vertex program — so the cells measure pure membership
// behaviour: how long each protocol takes to confirm a real crash, and how
// often it suspects or kills a node that is alive, as the cluster grows and
// the network misbehaves.
//
// Both detectors run over the same lossy datagram fabric (netsim with the
// omission layer on and heartbeats/pings demoted to best-effort datagrams),
// under the same seeded chaos and the same crash timeline:
//
//   - gossip: the SWIM detector from internal/gossip. Detection is "the
//     observer's (node 0) view confirms the victim".
//   - central: an inline model of the centralized monitor where every node
//     heartbeats the master (node 0) across the lossy fabric, with the cost
//     model's SuspectBeats/DetectMissedBeats thresholds. This is what the
//     paper's Zookeeper-style membership degrades to when its control
//     channel shares the data network's faults.
//
// Every cell is a deterministic simulation output, pinned by identity_test.go.

const (
	memSeed        = 0x6d656d6272 // "membr"
	memDropRate    = 0.2          // loss on every link touching the lossy set
	memLossySet    = 32           // nodes with lossy links (all, when n <= 32)
	memPartAt      = 1            // partition installed before this period
	memPartPeriods = 2            // heal after this many periods (< confirm)
	memCrashPeriod = 6            // victim (node n-2) crashes before this period
	memHorizon     = 40           // periods every cell runs, for comparable rates
	memMaxPeriods  = 400          // give up (experiment bug) past this point
)

// memFault installs one chaos shape's faults due before the given period.
type memFault func(net *netsim.Network, n, period int)

// memScenarios are the chaos shapes, installed incrementally at period
// boundaries so both detectors see the identical fault timeline.
var memScenarios = []struct {
	name  string
	apply memFault
}{
	{"drop", func(net *netsim.Network, n, period int) {
		if period != 0 {
			return
		}
		for i := 0; i < min(memLossySet, n); i++ {
			for j := 0; j < n; j++ {
				if i != j {
					net.SetDropRate(i, j, memDropRate)
					net.SetDropRate(j, i, memDropRate)
				}
			}
		}
	}},
	{"part", func(net *netsim.Network, n, period int) {
		// The cut-off group is small ids, never the master/observer (0) and
		// never the victim (n-2).
		group := make([]int, max(2, min(8, n/4)))
		for i := range group {
			group[i] = i + 1
		}
		switch period {
		case memPartAt:
			net.Partition(group)
		case memPartAt + memPartPeriods:
			net.Heal(group)
		}
	}},
}

// memCell is one (size, scenario, detector) result. Every cell runs at least
// memHorizon periods (longer only if detection needs it), so the
// false-suspicion/false-confirm counts are rates over the same window.
type memCell struct {
	n                  int
	scenario, detector string
	seconds            float64 // crash -> observer-confirmed, sim seconds
	periods            int     // same, in protocol periods
	falseSuspicions    int     // suspicions of nodes that were up
	falseConfirms      int     // nodes declared failed while actually up
	messages           int64   // detector datagrams sent
	wireBytes          int64   // detector wire bytes sent
}

// observe records the first period at which the observer has confirmed the
// victim and reports whether the cell is complete: detected, and past the
// horizon.
func (c *memCell) observe(period int, confirmed bool, periodSeconds float64) bool {
	if c.periods == 0 && period >= memCrashPeriod && confirmed {
		c.periods = period - memCrashPeriod + 1
		c.seconds = float64(c.periods) * periodSeconds
	}
	return c.periods > 0 && period >= memHorizon-1
}

// gossipCell crashes node n-2 at the scripted period and runs the SWIM
// detector over the horizon; detection is "the observer's (node 0) view
// confirms the victim".
func gossipCell(c memCell, apply memFault) (memCell, error) {
	d, err := gossip.New(c.n, gossip.Params{Seed: rng.Hash2(memSeed, uint64(c.n))})
	if err != nil {
		return c, err
	}
	defer d.Close()
	victim := c.n - 2
	for period := 0; period < memMaxPeriods; period++ {
		apply(d.Net(), c.n, period)
		if period == memCrashPeriod {
			d.Fail(victim)
		}
		d.RunPeriod()
		for _, id := range d.TakeConfirms() {
			if d.Up(id) {
				c.falseConfirms++
			}
		}
		if c.observe(period, d.StatusAt(0, victim) == gossip.UpdConfirm, d.PeriodSeconds()) {
			st := d.Stats()
			c.falseSuspicions = st.FalseSuspicions
			c.messages, c.wireBytes = st.Messages, st.Bytes
			return c, d.Err()
		}
	}
	return c, fmt.Errorf("observer never confirmed node %d in %d periods", victim, memMaxPeriods)
}

// centralCell runs the inline centralized model: every node heartbeats the
// master (node 0) once per period as a best-effort datagram over the same
// lossy fabric; the master suspects after SuspectBeats consecutive misses
// and confirms after DetectMissedBeats.
func centralCell(c memCell, apply memFault) (memCell, error) {
	cost := costmodel.Default()
	n := c.n
	net, err := netsim.New(n, cost)
	if err != nil {
		return c, err
	}
	defer net.Close()
	net.EnableOmission(rng.Hash2(memSeed, uint64(n)))
	net.SetDatagramKind(netsim.KindControl)

	const beatBytes = 12 // u32 node id + u64 beat sequence
	suspectAt, confirmAt := cost.SuspectBeats(), cost.DetectMissedBeats
	victim := n - 2
	up := make([]bool, n) // ground truth
	for i := range up {
		up[i] = true
	}
	misses := make([]int, n)
	suspected := make([]bool, n)
	confirmed := make([]bool, n)
	for period := 0; period < memMaxPeriods; period++ {
		apply(net, n, period)
		if period == memCrashPeriod {
			up[victim] = false
			net.SetFailed(victim, true)
		}
		// The network keeps each payload until it is delivered, so every beat
		// gets bytes of its own, carved from one slab per period.
		slab := make([]byte, n*beatBytes)
		for i := 1; i < n; i++ {
			if !up[i] {
				continue
			}
			beat := slab[i*beatBytes:][:beatBytes:beatBytes]
			binary.LittleEndian.PutUint32(beat, uint32(i))
			binary.LittleEndian.PutUint64(beat[4:], uint64(period))
			net.Send(i, 0, netsim.KindControl, beat)
			c.messages++
			c.wireBytes += beatBytes
		}
		net.FinishRound()
		got := make([]bool, n)
		for _, m := range net.Receive(0) {
			got[m.From] = true
		}
		for i := 1; i < n; i++ {
			if confirmed[i] {
				continue
			}
			if got[i] {
				misses[i], suspected[i] = 0, false
				continue
			}
			misses[i]++
			if misses[i] == suspectAt && !suspected[i] {
				suspected[i] = true
				if up[i] {
					c.falseSuspicions++
				}
			}
			if misses[i] >= confirmAt {
				confirmed[i] = true
				if up[i] {
					c.falseConfirms++
				}
			}
		}
		if c.observe(period, confirmed[victim], cost.HeartbeatInterval) {
			return c, net.Err()
		}
	}
	return c, fmt.Errorf("master never confirmed node %d in %d periods", victim, memMaxPeriods)
}

// membershipMatrix runs the gossip-vs-centralized detection matrix: one
// scripted crash of node n-2 per (cluster size, chaos scenario, detector).
func membershipMatrix(sizes []int) ([]memCell, error) {
	var cells []memCell
	for _, n := range sizes {
		for _, sc := range memScenarios {
			for _, det := range []struct {
				name string
				run  func(memCell, memFault) (memCell, error)
			}{
				{"gossip", gossipCell},
				{"central", centralCell},
			} {
				cell, err := det.run(memCell{n: n, scenario: sc.name, detector: det.name}, sc.apply)
				if err != nil {
					return nil, fmt.Errorf("membership/%s/n%d/%s: %w", det.name, n, sc.name, err)
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// Membership renders the detection matrix (beyond the paper): detection
// latency against false suspicions and false kills, per cluster size.
func Membership(o Options) (*Table, error) {
	sizes := []int{8, 128, 1024}
	if o.Small {
		sizes = sizes[:2]
	}
	cells, err := membershipMatrix(sizes)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "membership",
		Title: "Failure detection: SWIM gossip vs centralized heartbeat (20% drop / 2-period partition, one crash)",
		Header: []string{"n", "fault", "detector", "detect (periods)", "detect (s)",
			"false suspicions", "false confirms", "messages", "wire bytes"},
		Notes: "SWIM: O(1) expected detection periods; indirect probes + suspicion keep false suspicions from becoming kills",
	}
	for _, c := range cells {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(c.n), c.scenario, c.detector, fmt.Sprint(c.periods), fmt.Sprintf("%.1f", c.seconds),
			fmt.Sprint(c.falseSuspicions), fmt.Sprint(c.falseConfirms), fmt.Sprint(c.messages), fmt.Sprint(c.wireBytes),
		})
	}
	return t, nil
}
