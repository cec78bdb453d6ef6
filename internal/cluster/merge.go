package cluster

import (
	"griffin/internal/hwmodel"
	"griffin/internal/kernels"
	"griffin/internal/rank"
)

// MergeTopK merges per-shard top-k lists into the global top-k under the
// engine's rank.Beats total order (score descending, score ties by
// ascending docID), returning the merged docs plus the billable CPU work
// of the selection.
//
// Correctness relies on two properties. Document partitioning makes the
// shards' candidate sets disjoint, and scoring against global collection
// statistics makes every candidate's score identical to its score in a
// single-engine run; so the single engine's top-k — a total-order
// selection over the union of all shards' candidates — is contained in
// the union of the per-shard top-k lists (any doc beating all others
// globally beats all others within its shard). Re-running the same
// bounded-heap selection the engine uses (rank.TopKCPU) over that union
// therefore reproduces the single-engine result exactly.
//
// The merge cost is priced like any other top-k: one heap candidate per
// merged element under the calibrated CPU model — the gather-side term of
// the cluster's critical-path latency. A single part is already a sorted
// top-k under the same order, so it is the answer (truncated to k) and
// the gather does no work: a one-shard cluster's latency is its shard's.
func MergeTopK(parts [][]kernels.ScoredDoc, k int) ([]kernels.ScoredDoc, hwmodel.CPUWork) {
	if len(parts) == 1 && k > 0 && len(parts[0]) > 0 {
		return parts[0][:min(len(parts[0]), k)], hwmodel.CPUWork{}
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 || k <= 0 {
		return nil, hwmodel.CPUWork{}
	}
	all := make([]kernels.ScoredDoc, 0, n)
	for _, p := range parts {
		all = append(all, p...)
	}
	return rank.TopKCPU(all, k)
}
