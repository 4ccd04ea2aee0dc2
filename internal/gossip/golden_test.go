package gossip

import (
	"math"
	"testing"

	"imitator/internal/netsim"
)

// The replay test compares two runs of one binary; these cells compare this
// binary with the one the literals were recorded on (the commit before the
// sparse-round rewrite of netsim and the suspect lists here). Each folds the
// complete observable state after every period — every view row's status,
// incarnation, suspicion base and final flag, the detector's Stats, the
// omission layer's counters and the byte total — so a change that reorders one
// RNG draw, one delivery or one float addition anywhere in a run moves the
// hash. A refactor must leave the literals alone.

// fnv folds 64-bit words FNV-1a style, starting from fnvOffset.
type fnv uint64

const fnvOffset fnv = 1469598103934665603

func (h *fnv) mix(v uint64) {
	*h ^= fnv(v)
	*h *= 1099511628211
}

// foldState mixes the detector's whole observable state into h.
func foldState(h *fnv, d *Detector) {
	for _, nd := range d.nodes {
		for j := range nd.view {
			mv := &nd.view[j]
			h.mix(uint64(mv.status()))
			h.mix(uint64(mv.inc))
			h.mix(uint64(mv.since()))
			if mv.final() {
				h.mix(1)
			} else {
				h.mix(0)
			}
		}
	}
	st := d.Stats()
	for _, v := range []int64{int64(st.Periods), int64(st.FalseSuspicions), st.Messages, st.Bytes, d.Net().TotalBytes()} {
		h.mix(uint64(v))
	}
	om, _ := d.Net().OmissionStats()
	for _, v := range []int64{om.Retransmits, om.RetransmitBytes, om.AckBytes, om.DuplicatesDelivered,
		om.DuplicatesDropped, om.Reordered, om.Parked, om.Released, om.Fenced, om.DroppedDead, om.DatagramsLost} {
		h.mix(uint64(v))
	}
	h.mix(math.Float64bits(om.BackoffSeconds))
}

// allLinks calls set for every directed link of an n-member cluster.
func allLinks(n int, set func(i, j int)) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				set(i, j)
			}
		}
	}
}

func TestGoldenRuns(t *testing.T) {
	cells := []struct {
		name    string
		n       int
		seed    uint64
		periods int
		// step runs before the given period; period 0 installs the chaos.
		step     func(d *Detector, period int)
		hash     uint64
		stats    Stats
		omission netsim.OmissionStats
	}{
		{
			name: "n64-drop", n: 64, seed: 11, periods: 40,
			step: func(d *Detector, period int) {
				switch period {
				case 0:
					allLinks(d.n, func(i, j int) { d.Net().SetDropRate(i, j, 0.2) })
				case 3:
					d.Fail(40)
				}
			},
			hash:     0x5f21ffe52ed18a0a,
			stats:    Stats{Periods: 40, FalseSuspicions: 156, Messages: 12672, Bytes: 1171447},
			omission: netsim.OmissionStats{DatagramsLost: 2473},
		},
		{
			name: "n64-drop-dup-reorder", n: 64, seed: 12, periods: 40,
			step: func(d *Detector, period int) {
				switch period {
				case 0:
					allLinks(d.n, func(i, j int) {
						d.Net().SetDropRate(i, j, 0.15)
						d.Net().SetDupRate(i, j, 0.1)
						d.Net().SetReorderRate(i, j, 0.1)
					})
				case 4:
					d.Fail(9)
				}
			},
			hash:     0xaf088614cecb10e5,
			stats:    Stats{Periods: 40, FalseSuspicions: 51, Messages: 12252, Bytes: 1163813},
			omission: netsim.OmissionStats{DuplicatesDelivered: 1017, Reordered: 1228, DatagramsLost: 1769},
		},
		{
			name: "n128-partition-heal", n: 128, seed: 13, periods: 40,
			step: func(d *Detector, period int) {
				group := []int{1, 2, 3, 4, 5, 6, 7, 8}
				switch period {
				case 2:
					d.Net().Partition(group)
				case 14:
					d.Net().Heal(group)
				case 20:
					d.Fail(100)
				}
			},
			hash:     0x1e40c2b350f4c943,
			stats:    Stats{Periods: 40, FalseSuspicions: 115, Messages: 11087, Bytes: 973255},
			omission: netsim.OmissionStats{DatagramsLost: 904},
		},
		{
			name: "n96-crash-revive-recrash", n: 96, seed: 14, periods: 70,
			step: func(d *Detector, period int) {
				switch period {
				case 0:
					allLinks(d.n, func(i, j int) { d.Net().SetDropRate(i, j, 0.1) })
				case 2:
					d.Fail(5)
					d.Fail(77)
				case 6:
					d.ForceConfirm(77)
				case 25:
					d.Revive(5)
				case 35:
					d.Fail(5)
				}
			},
			hash:     0xd2bea5d8a74f224b,
			stats:    Stats{Periods: 70, FalseSuspicions: 55, Messages: 26084, Bytes: 2160635},
			omission: netsim.OmissionStats{DatagramsLost: 2613},
		},
		{
			name: "n300-large", n: 300, seed: 6, periods: 60,
			step: func(d *Detector, period int) {
				if period == 0 {
					allLinks(d.n, func(i, j int) { d.Net().SetDropRate(i, j, 0.05) })
					d.Fail(17)
					d.Fail(170)
					d.Fail(299)
				}
			},
			hash:     0xa8404e3f6cb84084,
			stats:    Stats{Periods: 60, FalseSuspicions: 12, Messages: 55231, Bytes: 3023072},
			omission: netsim.OmissionStats{DatagramsLost: 2624},
		},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			d := newDetector(t, c.n, Params{Seed: c.seed})
			defer d.Close()
			h := fnvOffset
			for period := 0; period < c.periods; period++ {
				c.step(d, period)
				d.RunPeriod()
				foldState(&h, d)
			}
			checkClean(t, d)
			om, _ := d.Net().OmissionStats()
			if uint64(h) != c.hash || d.Stats() != c.stats || om != c.omission {
				t.Fatalf("run diverged from the recorded one:\n got hash: %#x,\n stats: %#v,\n omission: %#v\nwant hash: %#x,\n stats: %#v,\n omission: %#v",
					uint64(h), d.Stats(), om, c.hash, c.stats, c.omission)
			}
		})
	}
}
