package bear

import (
	"context"
	"io"

	"bear/internal/core"
)

// ErrRebuildInProgress is returned by Rebuild when another rebuild of the
// same Dynamic is already running; queries keep serving the old snapshot
// throughout, so the caller can simply retry later.
var ErrRebuildInProgress = core.ErrRebuildInProgress

// ErrIncrementalNotApplicable is returned when an explicitly requested
// incremental rebuild is disqualified by the pending updates (hub dirtied,
// cross-block edge, missing rebuild cache, …); the error message names the
// reason. RebuildAuto falls back instead.
var ErrIncrementalNotApplicable = core.ErrIncrementalNotApplicable

// Dynamic wraps a preprocessed graph for incremental edge updates — the
// paper's stated future-work direction. Changing the out-edges of k nodes
// since the last preprocessing is a rank-k modification of the system
// matrix, and queries stay exact through a Sherman–Morrison–Woodbury
// correction on top of the block-elimination solver: each query costs
// O(k+1) BEAR solves. Call Rebuild to fold accumulated changes into a
// fresh preprocessing pass once k grows.
type Dynamic = core.Dynamic

// NewDynamic preprocesses g and wraps it for incremental updates.
func NewDynamic(g *Graph, opts Options) (*Dynamic, error) {
	return core.NewDynamic(g, opts)
}

// NewDynamicCtx is NewDynamic honoring cancellation on ctx during the
// initial preprocessing pass, which aborts between Algorithm-1 stages.
func NewDynamicCtx(ctx context.Context, g *Graph, opts Options) (*Dynamic, error) {
	return core.NewDynamicCtx(ctx, g, opts)
}

// LoadDynamic restores a Dynamic previously written with SaveState,
// verifying the file's integrity footer. The restored instance answers
// queries bit-identically to the saved one, pending updates included.
func LoadDynamic(r io.Reader) (*Dynamic, error) { return core.LoadDynamic(r) }

// RebuildMode selects how RebuildCtx folds pending updates into fresh
// precomputed matrices: a full Algorithm-1 pass, an incremental
// dirty-block rebuild, or automatic selection with fallback.
type RebuildMode = core.RebuildMode

const (
	// RebuildAuto rebuilds incrementally when the pending updates qualify
	// (spoke-only churn within the fill budget) and falls back to a full
	// pass otherwise, recording the reason in the RebuildReport.
	RebuildAuto = core.RebuildAuto
	// RebuildFull always re-runs the whole preprocessing pass, including a
	// fresh run of the configured ordering engine.
	RebuildFull = core.RebuildFull
	// RebuildIncremental requires the dirty-block path and errors when the
	// pending updates disqualify it.
	RebuildIncremental = core.RebuildIncremental
)

// ParseRebuildMode validates a rebuild-mode string; the empty string
// selects RebuildAuto.
func ParseRebuildMode(s string) (RebuildMode, error) { return core.ParseRebuildMode(s) }

// RebuildReport describes one completed rebuild: the path that ran, the
// fallback reason if auto mode declined the incremental path, and the
// per-stage timing split. Dynamic.LastRebuild returns the most recent one.
type RebuildReport = core.RebuildReport
