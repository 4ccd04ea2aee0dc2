package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"imitator/internal/datasets"
)

// TestStrategyDecidesPersistence: Config.Recovery is the one fault-tolerance
// switch. After a fault-free run the DFS holds exactly the files the selected
// strategy's recovery reads, Result.Strategy names it, and Validate checks
// only that strategy's parameters: the others may be out of range because
// nothing reads them.
func TestStrategyDecidesPersistence(t *testing.T) {
	g := datasets.Tiny(300, 1800, 912)
	for _, tc := range []struct {
		rec                RecoveryKind
		edgeCut, vertexCut []string // top-level DFS directories after the run
		own                func(*Config) *int
		good               int
	}{
		{RecoverNone, nil, nil, nil, 0},
		{RecoverRebirth, nil, []string{"edgeckpt/"}, func(c *Config) *int { return &c.FT.K }, 1},
		{RecoverMigration, nil, []string{"edgeckpt/"}, func(c *Config) *int { return &c.FT.K }, 1},
		{RecoverCheckpoint, []string{"ckpt/", "ckptmeta/"}, []string{"ckpt/", "ckptmeta/"},
			func(c *Config) *int { return &c.Checkpoint.Interval }, 2},
		{RecoverLogged, []string{"ckptmeta/", "ftlog/"}, []string{"ckptmeta/", "ftlog/"},
			func(c *Config) *int { return &c.Logged.CompactEvery }, 0},
	} {
		for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
			t.Run(fmt.Sprintf("%v/%v", mode, tc.rec), func(t *testing.T) {
				cfg := DefaultConfig(mode, 4)
				cfg.MaxIter = 4
				cfg.Recovery = tc.rec
				// Every strategy's parameter starts out of range; only the
				// selected strategy's is then set to a valid value.
				cfg.FT.K, cfg.Checkpoint.Interval, cfg.Logged.CompactEvery = 0, 0, -1
				broken := 0
				if tc.own != nil {
					p := tc.own(&cfg)
					broken, *p = *p, tc.good
				}
				if err := cfg.Validate(); err != nil {
					t.Fatalf("unselected strategies' parameters were validated: %v", err)
				}
				cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := cl.Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Strategy.Kind != tc.rec.String() {
					t.Errorf("Strategy.Kind = %q, want %q", res.Strategy.Kind, tc.rec.String())
				}
				var got []string
				for _, path := range cl.dfs.List("") {
					dir, _, _ := strings.Cut(path, "/")
					if dir += "/"; len(got) == 0 || got[len(got)-1] != dir {
						got = append(got, dir)
					}
				}
				want := tc.edgeCut
				if mode == VertexCutMode {
					want = tc.vertexCut
				}
				if !slices.Equal(got, want) {
					t.Errorf("DFS holds %v, want %v", got, want)
				}
				if tc.own != nil {
					*tc.own(&cfg) = broken
					if err := cfg.Validate(); !errors.Is(err, ErrInvalidStrategy) {
						t.Errorf("selected strategy's parameter %d accepted: err = %v", broken, err)
					}
				}
			})
		}
	}
}

// TestPristineTablesImmutable: checkpoint and logged recovery keep every
// node's topology, slab handles, role slabs and arenas by reference (retainPristine)
// and share them with each newbie rebuilt from them, which is sound only
// while nothing writes them. A deep copy taken right after load must still
// equal the retained tables after a crash and after a second crash of the
// rebuilt newbie, and the newbie must run on the retained tables themselves.
func TestPristineTablesImmutable(t *testing.T) {
	g := datasets.Tiny(500, 3000, 93)
	for _, rec := range []RecoveryKind{RecoverCheckpoint, RecoverLogged} {
		for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
			t.Run(fmt.Sprintf("%v/%v", mode, rec), func(t *testing.T) {
				cfg := DefaultConfig(mode, 5)
				cfg.MaxIter = 8
				cfg.Recovery = rec
				cfg.Checkpoint = CheckpointConfig{Interval: 2}
				cfg.MaxRebirths = 4
				cfg.Chaos = []ChaosEvent{
					{Kind: ChaosCrash, Iteration: 3, Phase: FailBeforeBarrier, Nodes: []int{1}},
					{Kind: ChaosCrash, Iteration: 6, Phase: FailBeforeBarrier, Nodes: []int{1}},
				}
				cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
				if err != nil {
					t.Fatal(err)
				}
				want := make([]nodeTables, len(cl.nodes))
				for i, nd := range cl.nodes {
					want[i] = deepCopyTables(nodeTables{nd.csr, nd.ref, nd.masters, nd.mirrors, nd.tables, nd.edges})
				}
				res, err := cl.Run()
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Recoveries) != 2 {
					t.Fatalf("%d recoveries, want 2", len(res.Recoveries))
				}
				for i, p := range cl.pristine {
					if got := (nodeTables{p.csr, p.ref, p.masters, p.mirrors, p.tables, p.edges}); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("node %d: retained pristine tables changed after load", i)
					}
				}
				if &cl.nodes[1].inStart[0] != &cl.pristine[1].csr.inStart[0] || &cl.nodes[1].ref[0] != &cl.pristine[1].ref[0] ||
					&cl.nodes[1].tables.nodes[0] != &cl.pristine[1].tables.nodes[0] {
					t.Error("rebuilt node 1 does not share the retained tables")
				}
			})
		}
	}
}

// nodeTables is a node's load-built tables besides hot.
type nodeTables struct {
	csr     csr
	ref     []slabRef
	masters []tableRef
	mirrors []mirrorState
	tables  replicaTable
	edges   rawEdges
}

// deepCopyTables copies n down to every list it holds.
func deepCopyTables(n nodeTables) nodeTables {
	t, a, e := &n.csr, &n.tables, &n.edges
	return nodeTables{
		csr{slices.Clone(t.inStart), slices.Clone(t.outStart), slices.Clone(t.inNbr), slices.Clone(t.outNbr), slices.Clone(t.inWt)},
		slices.Clone(n.ref), slices.Clone(n.masters), slices.Clone(n.mirrors),
		replicaTable{slices.Clone(a.nodes), slices.Clone(a.pos), slices.Clone(a.ftOnly), slices.Clone(a.mirrorOf)},
		rawEdges{slices.Clone(e.src), slices.Clone(e.wt)},
	}
}

// TestRebirthFallbackDropsNewbieSlot is the white-box twin of
// TestChaosRebirthFallbackInheritsNewbie: after the Rebirth whose newbie had
// joined slot 3 falls back to Migration, slot 3 is dead and empty, so the
// coordinator must not count it as a member either (serve routing reads
// coord.Alive). It leaves without a fresh failure: the fallback stays the
// run's last recovery.
func TestRebirthFallbackDropsNewbieSlot(t *testing.T) {
	g := datasets.Tiny(400, 2400, 63)
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		cfg := DefaultConfig(mode, 8)
		cfg.MaxIter = 12
		cfg.Recovery = RecoverRebirth
		cfg.FT = FTConfig{K: 2}
		cfg.MaxRebirths = 1
		cfg.RebirthFallback = true
		cfg.Chaos = []ChaosEvent{
			{Kind: ChaosCrash, Iteration: 4, Phase: FailAfterBarrier, Nodes: []int{3}},
			{Kind: ChaosCrashDuringRecovery, During: "rebirth:join", Nodes: []int{5}},
		}
		cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run()
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if n := len(res.Recoveries); n == 0 || !res.Recoveries[n-1].Fallback {
			t.Fatalf("%v: recoveries %v, want a final fallback Migration", mode, res.Recoveries)
		}
		for id := range cfg.NumNodes {
			want := id != 3 && id != 5
			if got := cl.coord.Alive(id); got != want || cl.nodes[id].alive != want {
				t.Errorf("%v: slot %d is a member %v with a live node %v after Run, want %v",
					mode, id, got, cl.nodes[id].alive, want)
			}
		}
	}
}
