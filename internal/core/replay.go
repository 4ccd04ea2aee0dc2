package core

// replayActivation re-derives the active flags of recovered (or promoted)
// masters for the superstep about to (re-)execute (§5.1.3, §5.2.3).
//
// The invariant: a master is active at superstep `iter` exactly when some
// in-neighbor scattered during superstep iter-1. Every entry (master or
// replica) carries the committed scatter flag of its vertex stamped with
// the superstep that produced it, and every edge is stored on exactly one
// node, so one pass over local entries regenerates precisely the lost
// activation notices. isTarget selects which masters need fixing: all
// masters on reborn nodes for Rebirth, only newly promoted masters for
// Migration.
func (c *Cluster[V, A]) replayActivation(iter int, isTarget func(masterNode int16, masterPos int32) bool) error {
	always := c.always

	// Reset the targets to their activation baseline.
	c.runPhase(func(nd *node[V, A]) {
		for i := range nd.hot {
			e := &nd.hot[i]
			if !e.isMaster() || !isTarget(int16(nd.id), int32(i)) {
				continue
			}
			switch {
			case always:
				e.active = true
			case iter == 0:
				_, act := c.prog.Init(e.id, e.info())
				e.active = act
			default:
				e.active = false
			}
		}
	})
	if always || iter == 0 {
		return nil
	}
	prev := int32(iter - 1)

	// Regenerate activation operations aimed at the targets: local masters
	// directly, remote ones by a notice to their node.
	c.runPhase(func(nd *node[V, A]) {
		c.stageExact(nd.noticeBuf, nd.met, func(s *recSink) {
			for i := range nd.hot {
				e := &nd.hot[i]
				if !e.lastActivate || e.lastActivateIter != prev {
					continue
				}
				for _, w := range nd.out(i) {
					we := &nd.hot[w]
					if we.isMaster() {
						if isTarget(int16(nd.id), w) {
							we.active = true
						}
					} else if isTarget(we.masterNode, we.masterPos) {
						mpos := we.masterPos
						s.put(int(we.masterNode), 4, func(buf []byte) []byte {
							return putI32(buf, mpos)
						})
					}
				}
			}
		})
	})
	return c.exchange(true, (*node[V, A]).applyActivation)
}

// applyActivation applies one regenerated activation notice: the master at
// its position is active.
func (nd *node[V, A]) applyActivation(_ int, r *reader) {
	if pos := r.slot(len(nd.hot)); r.err == nil {
		nd.hot[pos].active = true
	}
}
