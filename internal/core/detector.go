package core

import (
	"time"

	"imitator/internal/coord"
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
	// for the centralized monitor, whose beats are cost-model only.
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

// centralDetector wraps the coord.HeartbeatMonitor on a FakeClock pinned
// to the simulated timeline — the paper's Zookeeper-style master. Its
// detect sequence is the exact integer tick arithmetic the chaos runtime
// has always used, so centralized-mode results stay bit-identical.
type centralDetector struct {
	h     detectorHost
	mon   *coord.HeartbeatMonitor
	fc    *coord.FakeClock
	monAt float64 // sim-second already applied to fc
	m     metrics.Membership
}

func newCentralDetector(h detectorHost) *centralDetector {
	d := &centralDetector{h: h, m: metrics.Membership{Mode: MembershipCentralized.String()}}
	d.fc = coord.NewFakeClock(time.Unix(0, 0))
	d.monAt = 0
	d.sync()
	interval := time.Duration(h.cost.HeartbeatInterval * float64(time.Second))
	mon, err := coord.NewHeartbeatMonitorWithClock(d.fc, interval, h.cost.DetectMissedBeats, nil)
	if err != nil {
		// Cost params are validated with the config; this cannot fire.
		panic(err)
	}
	if err := mon.SetSuspectMisses(h.cost.SuspectBeats()); err != nil {
		panic(err) // SuspectBeats is clamped to [1, DetectMissedBeats]
	}
	d.mon = mon
	for _, id := range h.alive() {
		mon.Track(id)
	}
	return d
}

// sync advances the monitor's FakeClock to the current sim-second.
func (d *centralDetector) sync() {
	if delta := d.h.clock.Now() - d.monAt; delta > 0 {
		d.fc.Advance(time.Duration(delta * float64(time.Second)))
		d.monAt = d.h.clock.Now()
	}
}

func (d *centralDetector) track(id int) {
	d.sync()
	d.mon.Track(id)
}

// detect lets the heartbeat monitor notice the silence: the simulated
// clock advances by the detection window, the survivors' beats land at
// the advanced instants, and the monitor first suspects and then confirms
// exactly the silent nodes.
func (d *centralDetector) detect([]int) {
	d.h.clock.Advance(d.h.cost.DetectionTime())
	d.sync()
	// Two-stage detection in exact integer tick arithmetic. sync's float
	// sim-second -> Duration conversion truncates, so the fake clock may
	// sit a nanosecond short of where float math says it should; the
	// deadlines below are advanced as exact Duration multiples of the
	// monitor's interval on top of that, so the victims' silence crosses
	// each threshold precisely — no overshoot fudge needed. The fake
	// clock drives only the monitor, never the simulated timeline.
	suspectAfter := d.mon.SuspectDeadline()
	d.fc.Advance(suspectAfter)
	for _, id := range d.h.alive() {
		d.mon.Beat(id)
	}
	for _, id := range d.mon.PollSuspects(d.fc.Now()) {
		d.h.suspect(id)
	}
	d.fc.Advance(d.mon.Deadline() - suspectAfter)
	for _, id := range d.h.alive() {
		d.mon.Beat(id)
	}
	for _, id := range d.mon.Poll(d.fc.Now()) {
		d.h.confirm(id)
		d.m.DetectionSeconds = append(d.m.DetectionSeconds, d.h.cost.DetectionTime())
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

func newGossipDetector(n int, mc MembershipConfig, seed uint64, h detectorHost) (*gossipDetector, error) {
	period := mc.PeriodSeconds
	if period <= 0 {
		period = h.cost.HeartbeatInterval
	}
	det, err := gossip.New(n, gossip.Params{
		// Decorrelate from the engine net's per-link fate RNGs, which
		// are seeded from the same ChaosSeed.
		Seed:             seed ^ 0x676f737369703130,
		PeriodSeconds:    period,
		IndirectProbes:   mc.GossipFanout,
		SuspicionPeriods: mc.SuspicionPeriods,
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
	// Global first-observer events exist for detector-only probes; the
	// engine path polls the observer's view instead. Drain them.
	d.det.TakeSuspects()
	d.det.TakeConfirms()
	if err := d.det.Err(); err != nil {
		// The closed simulation cannot produce malformed frames or
		// backend faults; any error here is a bug, like the panics in
		// newCentralDetector.
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
