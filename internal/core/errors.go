package core

import (
	"errors"
	"fmt"
)

// Sentinel errors for the failure paths callers branch on. Run and Validate
// wrap these with %w, so errors.Is works through the public API.
var (
	// ErrUnrecoverable reports a failure that exceeded the configured fault
	// tolerance. ErrNoStandby and ErrTooManyFailures wrap it, so a caller
	// that only cares whether the job can continue matches all three.
	ErrUnrecoverable = errors.New("core: unrecoverable failure")

	// ErrNoStandby reports a Rebirth/Checkpoint recovery that ran out of
	// standby nodes (Config.MaxRebirths). With Config.RebirthFallback set,
	// Rebirth falls back to Migration instead of surfacing it.
	ErrNoStandby = fmt.Errorf("%w: standby pool exhausted", ErrUnrecoverable)

	// ErrTooManyFailures reports more overlapping failures than the
	// replication degree K tolerates: a vertex lost its master and every
	// mirror, or recovery kept being re-failed until the restart budget ran
	// out.
	ErrTooManyFailures = fmt.Errorf("%w: more failures than tolerated", ErrUnrecoverable)

	// ErrInvalidSchedule reports a failure/chaos schedule that contradicts
	// the job configuration (bad iteration, unknown node, factor < 1, ...)
	// or a repro string that does not parse.
	ErrInvalidSchedule = errors.New("core: invalid failure schedule")

	// ErrInvalidStrategy reports an FT-strategy configuration the strategy
	// seam rejected (unknown recovery kind, or an out-of-range parameter of
	// the selected strategy, e.g. a checkpoint interval below 1).
	ErrInvalidStrategy = errors.New("core: invalid FT-strategy configuration")
)
