package core

import (
	"testing"

	"imitator/internal/datasets"
)

// TestReplicaConsistencyInvariant is the white-box form of the paper's core
// premise: after every committed superstep, every replica of an
// always-active vertex holds exactly the master's committed value, so the
// replicas genuinely are consistent backups (§3.1).
func TestReplicaConsistencyInvariant(t *testing.T) {
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		g := datasets.Tiny(300, 1800, 777)
		cfg := DefaultConfig(mode, 4)
		cfg.MaxIter = 1 // stepped manually below
		cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
		if err != nil {
			t.Fatal(err)
		}
		for iter := 0; iter < 4; iter++ {
			cl.superstep(iter)
			cl.barrier()
			cl.commit(iter)
			cl.iter++
			for _, nd := range cl.nodes {
				for i := range nd.hot {
					e := &nd.hot[i]
					if !e.isMaster() {
						continue
					}
					rt := nd.replicas(int32(i))
					for ri, rn := range rt.nodes {
						re := &cl.nodes[rn].hot[rt.pos[ri]]
						if re.value != e.value {
							t.Fatalf("%v iter %d: replica of %d on node %d holds %v, master %v",
								mode, iter, e.id, rn, re.value, e.value)
						}
						if re.lastActivate != e.lastActivate {
							t.Fatalf("%v iter %d: replica of %d scatter flag diverged", mode, iter, e.id)
						}
					}
				}
			}
		}
	}
}

// TestRollbackRestoresCommittedState: a rolled-back superstep must leave no
// staged state behind (Algorithm 1 line 9).
func TestRollbackRestoresCommittedState(t *testing.T) {
	g := datasets.Tiny(200, 1200, 778)
	cfg := DefaultConfig(EdgeCutMode, 3)
	cfg.MaxIter = 1
	cl, err := NewCluster[float64, float64](cfg, g, fakePR{})
	if err != nil {
		t.Fatal(err)
	}
	// One committed superstep, then an aborted one.
	cl.superstep(0)
	cl.barrier()
	cl.commit(0)
	cl.iter++
	snapshot := make(map[int][]float64)
	for _, nd := range cl.nodes {
		vals := make([]float64, len(nd.hot))
		for i := range nd.hot {
			vals[i] = nd.hot[i].value
		}
		snapshot[nd.id] = vals
	}
	cl.superstep(1)
	cl.rollback()
	for _, nd := range cl.nodes {
		for i := range nd.hot {
			e := &nd.hot[i]
			if e.hasPending || e.pendingActive || e.pendingScatter {
				t.Fatalf("node %d entry %d kept staged state after rollback", nd.id, i)
			}
			if e.value != snapshot[nd.id][i] {
				t.Fatalf("node %d entry %d value changed across rollback", nd.id, i)
			}
		}
	}
}

// TestReplicaScatterStampFollowsSteppedIter drives supersteps by hand without
// advancing cl.iter, as the allocation gate does: the superstep number is the
// phase parameter, so a replica must commit the same lastActivateIter stamp
// as its master — replay re-derives activation from those stamps (§5.1.3).
func TestReplicaScatterStampFollowsSteppedIter(t *testing.T) {
	for _, mode := range []Mode{EdgeCutMode, VertexCutMode} {
		cfg := DefaultConfig(mode, 4)
		cfg.MaxIter = 1 // stepped manually below
		cl, err := NewCluster[float64, float64](cfg, datasets.Tiny(300, 1800, 779), fakePR{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.stopWorkers()
		for iter := 0; iter < 3; iter++ {
			cl.superstep(iter)
			cl.barrier()
			cl.commit(iter)
			for _, nd := range cl.nodes {
				for i := range nd.hot {
					e := &nd.hot[i]
					if !e.isMaster() {
						continue
					}
					rt := nd.replicas(int32(i))
					if e.lastActivateIter != int32(iter) {
						t.Fatalf("%v iter %d: master of %d stamped %d", mode, iter, e.id, e.lastActivateIter)
					}
					for ri, rn := range rt.nodes {
						if re := &cl.nodes[rn].hot[rt.pos[ri]]; re.lastActivateIter != e.lastActivateIter {
							t.Fatalf("%v iter %d: replica of %d on node %d stamped %d, master %d",
								mode, iter, e.id, rn, re.lastActivateIter, e.lastActivateIter)
						}
					}
				}
			}
		}
	}
}
