package algorithms

import (
	"testing"

	"imitator/internal/core"
)

func TestCCApply(t *testing.T) {
	c := NewCC()
	if v, act := c.Apply(1, core.VertexInfo{}, 5, 3, true, 0); v != 3 || !act {
		t.Errorf("improving label = %v, %v", v, act)
	}
	if v, act := c.Apply(1, core.VertexInfo{}, 3, 5, true, 0); v != 3 || act {
		t.Errorf("non-improving label = %v, %v", v, act)
	}
	if v, act := c.Apply(1, core.VertexInfo{}, 3, 0, false, 0); v != 3 || act {
		t.Errorf("no-acc = %v, %v", v, act)
	}
	if c.Merge(7, 2) != 2 {
		t.Error("Merge should take min")
	}
	if v, _ := c.Init(9, core.VertexInfo{}); v != 9 {
		t.Error("Init should label with own id")
	}
}

func TestKCoreLifecycle(t *testing.T) {
	p := NewKCore(2)
	// Below threshold: dies and scatters.
	if v, act := p.Apply(1, core.VertexInfo{}, 5, 1, true, 0); v != Dead || !act {
		t.Errorf("starving vertex = %v, %v", v, act)
	}
	// Dead stays dead quietly.
	if v, act := p.Apply(1, core.VertexInfo{}, Dead, 9, true, 1); v != Dead || act {
		t.Errorf("dead vertex = %v, %v", v, act)
	}
	// Healthy with changed support: update, no scatter.
	if v, act := p.Apply(1, core.VertexInfo{}, 5, 3, true, 0); v != 3 || act {
		t.Errorf("healthy vertex = %v, %v", v, act)
	}
	// Unchanged support: no-op.
	if v, act := p.Apply(1, core.VertexInfo{}, 3, 3, true, 0); v != 3 || act {
		t.Errorf("stable vertex = %v, %v", v, act)
	}
	// No gather at all counts as zero support.
	if v, act := p.Apply(1, core.VertexInfo{}, 3, 0, false, 0); v != Dead || !act {
		t.Errorf("isolated vertex = %v, %v", v, act)
	}
}

func TestKCoreGather(t *testing.T) {
	p := NewKCore(2)
	if p.Gather(2, oneEdge(Dead, core.VertexInfo{}, 1)) != 0 {
		t.Error("dead neighbor should contribute 0")
	}
	if p.Gather(2, oneEdge(int32(7), core.VertexInfo{}, 1)) != 1 {
		t.Error("live neighbor should contribute 1")
	}
}
