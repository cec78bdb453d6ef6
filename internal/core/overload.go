package core

import (
	"context"
	"time"

	"griffin/internal/exec"
	"griffin/internal/gpu"
)

// SearchOptions carries a query's overload-control parameters into the
// engine. The zero value reproduces the un-optioned search paths byte
// for byte — no budget check, configured top-k, configured plan mode.
type SearchOptions struct {
	// Budget is the query's remaining deadline budget on the modeled
	// clock. When positive, device admission rejects the query
	// (gpu.ErrBudget) if the placed device's backlog plus the estimated
	// transfer cost already exceeds it — shed at the door instead of
	// queued to die. Zero means no budget.
	Budget time.Duration
	// ForceCPU degrades the query to a CPU-only plan (brownout): no
	// device admission, no timeline contention, same answer.
	ForceCPU bool
	// TopK overrides the configured result count when positive (brownout
	// serves interactive queries at reduced top-k under pressure).
	TopK int
}

// SearchOptsContext is SearchContext with a live-ingestion overlay and
// overload options. The query executes against this engine's main
// segment plus the overlay's pinned delta view, and the overlay's scorer
// evaluates the snapshot's collection statistics; a nil overlay is the
// frozen-corpus path byte for byte. A zero opts takes the legacy path
// unchanged: no budget check, configured top-k, configured plan mode.
func (e *Engine) SearchOptsContext(ctx context.Context, terms []string, ov *exec.Overlay, opts SearchOptions) (*Result, error) {
	if opts == (SearchOptions{}) {
		var h *gpu.QueryStream
		if e.node != nil {
			h = e.node.AdmitOn(e.placeDevice(terms))
			defer h.Release()
		}
		return e.search(ctx, terms, h, ov)
	}
	var h *gpu.QueryStream
	if e.node != nil && !opts.ForceCPU {
		var err error
		if h, err = e.node.AdmitOnBudget(e.placeDevice(terms), opts.Budget, e.estimateDeviceCost(terms)); err != nil {
			return nil, err
		}
		defer h.Release()
	}
	return e.searchOpts(ctx, terms, h, ov, opts)
}

// SearchOptsAtContext is SearchOptsContext with an explicit arrival on
// the global timeline (see SearchAt). A zero opts takes the legacy path
// unchanged; a budget rejection leaves the device timeline untouched, so
// shed arrivals are invisible to later queries.
func (e *Engine) SearchOptsAtContext(ctx context.Context, terms []string, arrival time.Duration, ov *exec.Overlay, opts SearchOptions) (*Result, error) {
	if opts == (SearchOptions{}) {
		var h *gpu.QueryStream
		if e.node != nil {
			h = e.node.AdmitAtOn(e.placeDeviceAt(terms, arrival), arrival)
			defer h.Release()
		}
		return e.search(ctx, terms, h, ov)
	}
	var h *gpu.QueryStream
	if e.node != nil && !opts.ForceCPU {
		var err error
		if h, err = e.node.AdmitAtOnBudget(e.placeDeviceAt(terms, arrival), arrival, opts.Budget, e.estimateDeviceCost(terms)); err != nil {
			return nil, err
		}
		defer h.Release()
	}
	return e.searchOpts(ctx, terms, h, ov, opts)
}

// estimateDeviceCost is the admission-time estimate of a query's device
// work: the transfer time of each term's compressed list, the same
// hwmodel quantity the affinity placement signal prices. It is a cheap
// lower bound — intersection and scoring come on top — which is the
// right bias for admission: an op rejected on the lower bound alone
// could never have met its deadline.
func (e *Engine) estimateDeviceCost(terms []string) time.Duration {
	if e.node == nil {
		return 0
	}
	model := e.node.Model()
	var est time.Duration
	for _, t := range terms {
		if pl, ok := e.ix.Lookup(t); ok {
			est += model.TransferTime(pl.EF.CompressedBytes())
		}
	}
	return est
}
