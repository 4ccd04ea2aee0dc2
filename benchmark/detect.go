package main

import (
	"fmt"
	"runtime"
	"time"

	"imitator/internal/gossip"
	"imitator/internal/rng"
)

// detectRun is one detector run's outcome.
type detectRun struct {
	newWall, installWall, runWall float64
	mem                           memSnap // the periods only
	meanDetectPeriods             float64 // crash to confirmed, mean over the live members
	observerPeriods               int     // same, at member 0
	unconfirmed                   int     // live members that never confirmed the victim
	falseConfirms                 int
	stats                         gossip.Stats
	periodSeconds                 float64
}

// detectOnce builds an n-member SWIM detector, makes every link touching the
// first `lossy` members drop 20% of its datagrams, crashes member n-2 at
// period crashAt and runs to the horizon.
func (r *run) detectOnce(job int, traced bool) (detectRun, error) {
	var rec *recorder
	if traced {
		rec = r.rec
	}
	p := r.prof
	n, victim := p.detectN, p.detectN-2
	var out detectRun

	runtime.GC() // every run starts from the same heap, as in job
	root := rec.begin("job", -1, job)
	s := rec.begin("gossip.new", root, job)
	t0 := time.Now()
	d, err := gossip.New(n, gossip.Params{Seed: rng.Hash2(r.opt.seed, 4)})
	out.newWall = time.Since(t0).Seconds()
	rec.end(s)
	if err != nil {
		return out, fmt.Errorf("gossip.New: %w", err)
	}
	defer d.Close()

	s = rec.begin("netsim.lossy.install", root, job)
	t0 = time.Now()
	net := d.Net()
	for i := 0; i < p.detectLossy; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				net.SetDropRate(i, j, 0.2)
				net.SetDropRate(j, i, 0.2)
			}
		}
	}
	out.installWall = time.Since(t0).Seconds()
	rec.end(s)

	confirmedAt := make([]int, n) // 0 = not yet; else periods after the crash
	m0 := readMem()
	s = rec.begin("gossip.run", root, job)
	t0 = time.Now()
	for period := 0; period < p.detectPeriods; period++ {
		if period == p.detectCrashAt {
			d.Fail(victim)
		}
		d.RunPeriod()
		for _, id := range d.TakeConfirms() {
			if d.Up(id) {
				out.falseConfirms++
			}
		}
		if period < p.detectCrashAt {
			continue
		}
		for obs := 0; obs < n; obs++ {
			if confirmedAt[obs] == 0 && d.StatusAt(obs, victim) == gossip.UpdConfirm {
				confirmedAt[obs] = period - p.detectCrashAt + 1
			}
		}
	}
	out.runWall = time.Since(t0).Seconds()
	rec.end(s)
	rec.end(root)
	out.mem = readMem().since(m0)
	if err := d.Err(); err != nil {
		return out, fmt.Errorf("detector wire: %w", err)
	}

	sum, live := 0, 0
	for obs, at := range confirmedAt {
		if obs == victim || !d.Up(obs) {
			continue
		}
		live++
		if at == 0 {
			out.unconfirmed++
		}
		sum += at
	}
	out.meanDetectPeriods = float64(sum) / float64(live)
	out.observerPeriods = confirmedAt[0]
	out.stats = d.Stats()
	out.periodSeconds = d.PeriodSeconds()
	return out, nil
}

// detect is the detector-only workload: no graph and no engine, so the
// failure detector does all the work. A run fails when a live member has not
// confirmed the victim by the horizon. A live member confirmed dead is a SWIM
// outcome under 20% loss, not a malfunction (about one seed in ten has one):
// it is reported as gossip.false_confirms and fails nothing.
func (r *run) detect() error {
	var walls, allocMB, mallocs, newWalls, installs, plain, traced []float64
	var first, last detectRun
	r.measure(func(rep int) {
		tracedRep := r.traced && rep%2 == 0
		r.attempted++
		out, err := r.detectOnce(rep, tracedRep)
		if err != nil {
			r.failf("gossip", "%v", err)
			return
		}
		if len(walls) == 0 {
			first = out
		}
		switch {
		case out.unconfirmed > 0:
			r.failf("gossip", "%d live members had not confirmed the crash after %d periods", out.unconfirmed, r.prof.detectPeriods)
		case out.stats != first.stats || out.meanDetectPeriods != first.meanDetectPeriods:
			r.failf("gossip", "detector outputs changed between repetitions: %+v then %+v", first.stats, out.stats)
		}
		last = out
		r.setup = append(r.setup, out.newWall+out.installWall)
		walls = append(walls, out.runWall)
		allocMB = append(allocMB, float64(out.mem.bytes)/1e6)
		mallocs = append(mallocs, float64(out.mem.mallocs))
		newWalls = append(newWalls, out.newWall)
		installs = append(installs, out.installWall)
		if tracedRep {
			traced = append(traced, out.runWall)
		} else {
			plain = append(plain, out.runWall)
		}
	})
	if len(walls) == 0 {
		return fmt.Errorf("no detector run finished")
	}
	periods := float64(r.prof.detectPeriods)
	if !r.traced {
		r.m.setFastest("job_wall_s", walls)
		r.timings["gossip.run"] = walls
		r.m.set("ops_per_s", float64(r.prof.detectN)*periods/fastest(walls)) // member-periods per second
		r.m.samples["ops_per_s"] = len(walls)
		r.m.setMedian("alloc_mb_per_job", allocMB)
		r.m.set("sim_s", last.meanDetectPeriods*last.periodSeconds)
		r.m.set("msg_mb", float64(last.stats.Bytes)/1e6)
		return nil
	}
	r.m.setFastest("gossip.new.wall_s", newWalls)
	r.m.setFastest("netsim.lossy.install.wall_s", installs)
	r.m.set("gossip.period.wall_ms", fastest(walls)*1e3/periods)
	r.m.set("gossip.period.allocs", median(mallocs)/periods)
	r.m.set("gossip.msgs", float64(last.stats.Messages))
	r.m.set("gossip.wire_mb", float64(last.stats.Bytes)/1e6)
	r.m.set("gossip.detect_periods", float64(last.observerPeriods))
	r.m.set("gossip.false_suspicions", float64(last.stats.FalseSuspicions))
	r.m.set("gossip.false_confirms", float64(last.falseConfirms))
	if base := fastest(plain); base > 0 {
		r.m.set("trace.overhead_pct", max(0, 100*(fastest(traced)-base)/base))
	}
	return nil
}
