package core

import (
	"slices"

	"imitator/internal/costmodel"
	"imitator/internal/gossip"
	"imitator/internal/metrics"
	"imitator/internal/netsim"
)

// failureDetector is the seam between chaos crash delivery and the
// membership protocol that notices the silence. Both implementations feed
// the same coordinator Suspect -> MarkFailed path (and through it epoch
// bumps, rebirth/migration, and serve-mode routing); they differ only in
// how the detection happens and what it costs in simulated seconds.
type failureDetector interface {
	// track registers a node that (re)joined the membership — a rebirth
	// or checkpoint newbie — so its next failure is detected anew.
	track(id int)
	// detect runs the protocol after the given nodes went silent: it
	// advances the simulated clock by the detection delay and drives the
	// coordinator's two-stage Suspect/MarkFailed announcement.
	detect(victims []int)
	// membership reports the detector's accumulated metrics.
	membership() *metrics.Membership
	// net exposes the detector's own network for chaos mirroring; nil
	// for the centralized detector, whose beats are cost-model only.
	net() *netsim.Network
}

// detectorHost is the cluster surface a detector drives: the simulated
// clock, timing parameters, the current membership, and the coordinator
// announcement callbacks.
type detectorHost struct {
	clock   *costmodel.Clock
	cost    costmodel.Params
	alive   func() []int // ascending ids of currently alive nodes
	suspect func(id int)
	confirm func(id int)
}

// centralDetector is the paper's Zookeeper-style master (§3.2): every
// survivor beats at every interval and the victims are exactly the silent
// nodes, so each victim is suspected after SuspectBeats missed intervals
// and confirmed after DetectMissedBeats, i.e. after Cost.DetectionTime().
type centralDetector struct {
	h detectorHost
	m metrics.Membership
}

func newCentralDetector(h detectorHost) *centralDetector {
	return &centralDetector{h: h, m: metrics.Membership{Mode: MembershipCentralized.String()}}
}

// track is a no-op: a rejoined slot beats like every other survivor.
func (d *centralDetector) track(int) {}

// detect advances the simulated clock by the detection window, then
// announces the two stages for every victim in ascending id order.
func (d *centralDetector) detect(victims []int) {
	dt := d.h.cost.DetectionTime()
	d.h.clock.Advance(dt)
	ids := slices.Sorted(slices.Values(victims))
	for _, id := range ids {
		d.h.suspect(id)
	}
	for _, id := range ids {
		d.h.confirm(id)
		d.m.DetectionSeconds = append(d.m.DetectionSeconds, dt)
	}
}

func (d *centralDetector) membership() *metrics.Membership {
	m := d.m
	return &m
}

func (d *centralDetector) net() *netsim.Network { return nil }

// gossipDetector runs the decentralized SWIM protocol from
// internal/gossip. The cluster's chaos (drop rates, partitions) is
// mirrored onto the detector's own datagram network, so detection latency
// and false suspicions respond to the same faults the engine suffers.
type gossipDetector struct {
	h    detectorHost
	det  *gossip.Detector
	susp int // suspicion timeout in periods, for the period cap
	m    metrics.Membership
}

func newGossipDetector(n int, seed uint64, h detectorHost) (*gossipDetector, error) {
	det, err := gossip.New(n, gossip.Params{
		// Decorrelate from the engine net's per-link fate RNGs, which
		// are seeded from the same ChaosSeed.
		Seed:          seed ^ 0x676f737369703130,
		PeriodSeconds: h.cost.HeartbeatInterval,
	})
	if err != nil {
		return nil, err
	}
	d := &gossipDetector{h: h, det: det, m: metrics.Membership{Mode: MembershipGossip.String()}}
	d.susp = det.SuspicionPeriods()
	return d, nil
}

func (d *gossipDetector) track(id int) {
	// A rebirth reuses the slot id: rejoin at a fresh incarnation.
	d.det.Revive(id)
}

// detect runs protocol periods until a designated observer — the lowest
// surviving id, standing in for "the cluster" the way the centralized
// master does — has confirmed every victim, advancing the simulated clock
// one period at a time. A generous period cap with a ForceConfirm
// backstop keeps recovery live even when chaos (a full partition of the
// detector's network) stops gossip from converging.
func (d *gossipDetector) detect(victims []int) {
	for _, id := range victims {
		d.det.Fail(id)
	}
	failPeriod := d.det.Period()
	obs := -1
	if alive := d.h.alive(); len(alive) > 0 {
		obs = alive[0]
	}
	suspected := make(map[int]bool, len(victims))
	confirmed := make(map[int]bool, len(victims))
	if obs >= 0 {
		maxPeriods := 64 + 16*d.susp
		for p := 0; p < maxPeriods && len(confirmed) < len(victims); p++ {
			d.det.RunPeriod()
			d.h.clock.Advance(d.det.PeriodSeconds())
			for _, v := range victims {
				st := d.det.StatusAt(obs, v)
				if !suspected[v] && st != gossip.UpdAlive {
					suspected[v] = true
					d.h.suspect(v)
				}
				if !confirmed[v] && st == gossip.UpdConfirm {
					confirmed[v] = true
					d.h.confirm(v)
					d.m.DetectionSeconds = append(d.m.DetectionSeconds,
						float64(d.det.Period()-failPeriod)*d.det.PeriodSeconds())
				}
			}
		}
	}
	for _, v := range victims {
		if confirmed[v] {
			continue
		}
		if !suspected[v] {
			d.h.suspect(v) // preserve the two-stage contract
		}
		d.det.ForceConfirm(v)
		d.h.confirm(v)
		d.m.DetectionSeconds = append(d.m.DetectionSeconds,
			float64(d.det.Period()-failPeriod)*d.det.PeriodSeconds())
	}
	// Global first-confirm events exist for detector-only probes; the
	// engine path polls the observer's view instead. Drain them.
	d.det.TakeConfirms()
	if err := d.det.Err(); err != nil {
		// The closed simulation cannot produce malformed frames or
		// backend faults; any error here is a bug.
		panic(err)
	}
}

func (d *gossipDetector) membership() *metrics.Membership {
	st := d.det.Stats()
	m := d.m
	m.FalseSuspicions = st.FalseSuspicions
	m.GossipBytes = st.Bytes
	m.GossipPeriods = st.Periods
	return &m
}

func (d *gossipDetector) net() *netsim.Network { return d.det.Net() }
