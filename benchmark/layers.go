package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"imitator/internal/bufpool"
	"imitator/internal/coord"
	"imitator/internal/costmodel"
	"imitator/internal/dfs"
	"imitator/internal/ftlog"
	"imitator/internal/netsim"
	"imitator/pkg/imitator"
)

// layerProbes times the small layers under the superstep loop and the FT
// persistence path by calling their public functions directly, each the best
// of five batches. They do not depend on the workload's graph; they run in
// every graph workload's traced pass so a trace is self-contained.
func (r *run) layerProbes() error {
	scale := r.prof.probeScale
	probe := func(name string, perBatch int, unit float64, batch func(n int)) {
		n := max(1, perBatch/scale)
		var per []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			batch(n)
			per = append(per, float64(time.Since(t0).Nanoseconds())/unit/float64(n))
		}
		r.m.setFastest(name, per)
	}
	rate := func(name string, mb float64, once func()) {
		var rates []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			once()
			rates = append(rates, mb/time.Since(t0).Seconds())
		}
		r.m.set(name, slices.Max(rates))
	}

	pool := bufpool.New()
	pool.Put(make([]byte, 0, 1024))
	probe("bufpool.getput_ns", 200000, 1, func(n int) {
		for i := 0; i < n; i++ {
			pool.Put(append(pool.Get(), 1))
		}
	})

	if err := r.probeNetRound(probe); err != nil {
		return err
	}
	if err := r.probeBarrier(probe); err != nil {
		return err
	}

	var q imitator.Query
	var buf []byte
	probe("core.servewire.roundtrip_ns", 200000, 1, func(n int) {
		for i := 0; i < n; i++ {
			buf = imitator.EncodeQuery(buf[:0], imitator.Query{Kind: imitator.QueryValue, Vertex: imitator.VertexID(i)})
			q, _ = imitator.DecodeQuery(buf) // a query encoded one line up always decodes
			buf = imitator.EncodeAnswer(buf[:0], imitator.Answer{Kind: q.Kind, Vertex: q.Vertex, Value: 1, Epoch: i})
			_, _ = imitator.DecodeAnswer(buf)
		}
	})

	const files, fileMB = 16, 1
	store, err := dfs.New(r.prof.nodes, costmodel.Default())
	if err != nil {
		return fmt.Errorf("dfs probe: %w", err)
	}
	block := make([]byte, fileMB<<20)
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("probe/%d", i)
	}
	rate("dfs.write_mb_per_s", files*fileMB, func() {
		for i, p := range paths {
			store.Write(i%r.prof.nodes, p, block)
		}
	})
	var probeErr error
	rate("dfs.read_mb_per_s", files*fileMB, func() {
		for i, p := range paths {
			if _, _, err := store.Read(i%r.prof.nodes, p); err != nil {
				probeErr = fmt.Errorf("dfs probe: %w", err)
			}
		}
	})

	// One superstep log the size a node writes: fixed-width float64 records
	// and a handful of sync payloads.
	records := max(1, 200000/scale)
	val := make([]byte, 8)
	payload := make([]byte, 4096)
	var log []byte
	encode := func() {
		var at, slot int
		log = ftlog.AppendFileHeader(log[:0], 7, ftlog.KindDelta)
		log, at = ftlog.AppendCountPlaceholder(log)
		for i := 0; i < records; i++ {
			log, slot = ftlog.AppendRecordPrefix(log, uint32(i), ftlog.FlagActive, int32(i))
			log = append(log, val...)
			ftlog.PatchValLen(log, slot)
		}
		ftlog.PatchCount(log, at, records)
		log, at = ftlog.AppendCountPlaceholder(log)
		for i := 0; i < 8; i++ {
			log = ftlog.AppendMessage(log, payload)
		}
		ftlog.PatchCount(log, at, 8)
	}
	encode()
	logMB := float64(len(log)) / 1e6
	rate("ftlog.encode_mb_per_s", logMB, encode)
	rate("ftlog.decode_mb_per_s", logMB, func() {
		dec, err := ftlog.NewDecoder(log)
		if err != nil {
			probeErr = fmt.Errorf("ftlog probe: %w", err)
			return
		}
		decoded := 0
		for {
			_, ok, err := dec.NextRecord()
			if err != nil || !ok {
				break
			}
			decoded++
		}
		for {
			_, ok, err := dec.NextMessage()
			if err != nil || !ok {
				break
			}
			decoded++
		}
		if decoded != records+8 {
			probeErr = fmt.Errorf("ftlog probe: decoded %d of %d entries", decoded, records+8)
		}
	})
	return probeErr
}

// probeNetRound times one all-to-all messaging round of the in-memory
// network: every node sends to every other, the round is closed, every node
// receives. A superstep has two to four of these.
func (r *run) probeNetRound(probe func(string, int, float64, func(int))) error {
	nodes := r.prof.nodes
	net, err := netsim.New(nodes, costmodel.Default())
	if err != nil {
		return fmt.Errorf("netsim probe: %w", err)
	}
	defer net.Close()
	payload := make([]byte, 1024)
	probe("netsim.round_us", 4000, 1e3, func(n int) {
		for i := 0; i < n; i++ {
			for from := 0; from < nodes; from++ {
				for to := 0; to < nodes; to++ {
					if from != to {
						net.Send(from, to, netsim.KindSync, payload)
					}
				}
			}
			net.FinishRound()
			for to := 0; to < nodes; to++ {
				net.Receive(to)
			}
		}
	})
	return net.Err()
}

// probeBarrier times one global barrier with a goroutine per simulated node;
// a superstep has two.
func (r *run) probeBarrier(probe func(string, int, float64, func(int))) error {
	nodes := r.prof.nodes
	co, err := coord.New(nodes)
	if err != nil {
		return fmt.Errorf("coord probe: %w", err)
	}
	probe("coord.barrier_us", 4000, 1e3, func(n int) {
		var wg sync.WaitGroup
		for node := 0; node < nodes; node++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					co.EnterBarrier(node)
				}
			}()
		}
		wg.Wait()
	})
	return nil
}
