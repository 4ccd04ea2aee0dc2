// Package costmodel converts the work the simulated cluster performs —
// vertex computation, network transfer, DFS I/O — into simulated seconds.
//
// The paper runs on 50 EC2-like nodes (4 cores, 1 GigE, HDFS on SATA
// disks). We execute every protocol step for real (messages are encoded,
// sent and decoded; checkpoints are written byte-for-byte), but wall-clock
// time on one laptop core would not reproduce the paper's time axis, so
// each node carries a simulated clock advanced by this model. Constants are
// calibrated to the paper's hardware; every figure that reports seconds
// uses these simulated seconds.
package costmodel

import "fmt"

// Params holds the calibrated cost constants.
type Params struct {
	// NetBandwidth is the per-node network bandwidth in bytes/second
	// (1 GigE ~ 125 MB/s).
	NetBandwidth float64
	// NetLatency is the fixed cost of one batched message exchange round.
	NetLatency float64
	// DiskBandwidth is the per-node DFS disk bandwidth in bytes/second.
	DiskBandwidth float64
	// DFSReplication is the write amplification of the DFS (HDFS default 3).
	DFSReplication int
	// DFSWriteLatency/DFSReadLatency are fixed per-operation costs
	// (namenode RPCs, pipeline setup, commit). The paper observes that
	// HDFS writes are batched and "insensitive to the data size" — the
	// fixed cost dominates at small sizes (§6.2).
	DFSWriteLatency float64
	DFSReadLatency  float64
	// LogBandwidth is the per-node streamed-append bandwidth of the
	// superstep-log files (bytes/second); LogWriteLatency the fixed cost of
	// sealing one log file. Log appends stream into a pre-opened pipeline,
	// so they skip the per-operation namenode round-trips DFSWriteLatency
	// charges (Young's-model comparison: logging overhead vs checkpoint
	// overhead, arXiv:1601.06496 §2).
	LogBandwidth    float64
	LogWriteLatency float64
	// ComputePerEdge is the cost of processing one edge in gather.
	ComputePerEdge float64
	// ComputePerVertex is the cost of one apply.
	ComputePerVertex float64
	// ReconstructPerVertex is the cost of materializing one recovered
	// vertex entry (allocation + placement).
	ReconstructPerVertex float64
	// BarrierOverhead is the fixed cost of one global barrier.
	BarrierOverhead float64
	// HeartbeatInterval is the failure-detection heartbeat period (the
	// paper uses a conservative 500 ms); detection takes
	// DetectMissedBeats * HeartbeatInterval.
	HeartbeatInterval float64
	DetectMissedBeats int
	// ComputeSerialFrac is the fraction of each compute phase that cannot
	// parallelize across a node's simulated cores (dispatch, cache
	// contention, reduction). The rest is charged as if it ran on the
	// per-node worker pool, bounded by the slowest worker; see ComputeTime.
	// Irrelevant with one worker.
	ComputeSerialFrac float64
}

// Default returns constants calibrated so the scaled datasets (1/64 of the
// paper's sizes) reproduce the paper's cost *ratios*: bandwidths are scaled
// down with the data so data-proportional terms keep their share of an
// iteration, per-edge compute matches Hama-era Java throughput, and DFS
// operations carry the fixed overheads the paper observes ("writes are
// insensitive to the data size").
func Default() Params {
	return Params{
		NetBandwidth:         1.2e6, // 1 GigE / 64 (scaled with dataset size)
		NetLatency:           1e-3,
		DiskBandwidth:        0.94e6, // SATA HDD via HDFS / 64
		DFSReplication:       3,
		DFSWriteLatency:      50e-3,
		DFSReadLatency:       20e-3,
		LogBandwidth:         0.94e6, // streamed appends ride the same disks
		LogWriteLatency:      2e-3,
		ComputePerEdge:       0.7e-6,
		ComputePerVertex:     3e-6,
		ReconstructPerVertex: 4e-6,
		BarrierOverhead:      5e-3,
		HeartbeatInterval:    0.5,
		DetectMissedBeats:    3,
		ComputeSerialFrac:    0.05,
	}
}

// Validate reports obviously broken parameter sets.
func (p Params) Validate() error {
	if p.NetBandwidth <= 0 || p.DiskBandwidth <= 0 {
		return fmt.Errorf("costmodel: bandwidths must be positive")
	}
	if p.DFSReplication < 1 {
		return fmt.Errorf("costmodel: DFS replication %d < 1", p.DFSReplication)
	}
	if p.LogBandwidth <= 0 || p.LogWriteLatency < 0 {
		return fmt.Errorf("costmodel: LogBandwidth must be positive and LogWriteLatency non-negative")
	}
	if p.ComputeSerialFrac < 0 || p.ComputeSerialFrac >= 1 {
		return fmt.Errorf("costmodel: ComputeSerialFrac %g outside [0, 1)", p.ComputeSerialFrac)
	}
	return nil
}

// SuspectBeats is the earlier suspicion threshold of the two-stage failure
// detector: after this many missed intervals a node is *suspected* (the
// cluster stops waiting on it), and only after DetectMissedBeats is the
// failure *confirmed* and announced. It is DetectMissedBeats-1, minimum 1.
func (p Params) SuspectBeats() int {
	return max(1, p.DetectMissedBeats-1)
}

// ComputeTime converts one node's compute phase into simulated seconds when
// the work is spread over a per-node worker pool: `total` is the raw
// single-core cost of the whole phase and `slowest` the raw cost of the
// busiest worker's share. The serial fraction of the total is paid in full;
// the parallel remainder is bounded by the slowest worker (Amdahl's law with
// explicit load imbalance). With one worker slowest == total and the result
// is exactly `total`, so single-worker figures match the paper's model.
//
// Both inputs come from the simulated Config.WorkersPerNode chunks, which
// the host walks in order on one goroutine, so host scheduling cannot
// perturb the simulated clock.
func (p Params) ComputeTime(total, slowest float64) float64 {
	if slowest >= total {
		return total
	}
	return p.ComputeSerialFrac*total + (1-p.ComputeSerialFrac)*slowest
}

// NetTransfer returns the simulated seconds to move n bytes point-to-point.
func (p Params) NetTransfer(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / p.NetBandwidth
}

// DFSWrite returns the simulated seconds for one node to write n bytes to
// the DFS: local disk plus (replication-1) remote copies through the
// network and their disk writes, pipelined (bounded by the slowest stage).
func (p Params) DFSWrite(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	disk := float64(bytes) / p.DiskBandwidth
	net := float64(bytes) * float64(p.DFSReplication-1) / p.NetBandwidth
	if net > disk {
		return p.DFSWriteLatency + net
	}
	return p.DFSWriteLatency + disk
}

// LogWrite returns the simulated seconds for one node to append and seal an
// n-byte superstep-log file: the fixed seal cost plus the slower of the
// local streamed append and the (replication-1) remote copies, pipelined
// like DFSWrite.
func (p Params) LogWrite(bytes int64) float64 {
	if bytes <= 0 {
		return p.LogWriteLatency
	}
	disk := float64(bytes) / p.LogBandwidth
	net := float64(bytes) * float64(p.DFSReplication-1) / p.NetBandwidth
	if net > disk {
		return p.LogWriteLatency + net
	}
	return p.LogWriteLatency + disk
}

// DFSRead returns the simulated seconds for one node to read n bytes.
func (p Params) DFSRead(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return p.DFSReadLatency + float64(bytes)/p.DiskBandwidth
}

// DetectionTime is the simulated seconds between a crash and its detection
// by the heartbeat monitor.
func (p Params) DetectionTime() float64 {
	return p.HeartbeatInterval * float64(p.DetectMissedBeats)
}

// retxBackoffCap bounds the exponential retransmission backoff at
// 2^retxBackoffCap timeout units, so a long loss streak costs linearly
// after the first few doublings instead of exploding.
const retxBackoffCap = 5

// RetxBackoff returns the simulated seconds a sender waits before
// retransmission attempt `attempt` (1-based) of a lost frame: a bounded
// exponential starting at one retransmission timeout of 2x the round
// latency (ack turnaround) and doubling up to 2^5 = 32 units.
func (p Params) RetxBackoff(attempt int) float64 {
	if attempt < 1 {
		attempt = 1
	}
	exp := attempt - 1
	if exp > retxBackoffCap {
		exp = retxBackoffCap
	}
	return 2 * p.NetLatency * float64(int64(1)<<exp)
}

// Clock is a simulated clock. The cluster holds one global clock; per-node
// phase costs are combined with Merge (max) before advancing it, modeling
// the BSP barrier: an iteration is as slow as its slowest node.
type Clock struct {
	now float64
}

// Now returns the current simulated time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Advance moves the clock forward by d seconds (no-op for d <= 0).
func (c *Clock) Advance(d float64) {
	if d > 0 {
		c.now += d
	}
}

// Span measures a phase across nodes: each node reports its local cost and
// the span's Max is the phase duration.
type Span struct {
	max float64
}

// Observe records one node's cost for the phase.
func (s *Span) Observe(d float64) {
	if d > s.max {
		s.max = d
	}
}

// Max returns the slowest node's cost.
func (s *Span) Max() float64 { return s.max }
