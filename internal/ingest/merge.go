package ingest

import (
	"sort"

	"griffin/internal/exec"
	"griffin/internal/fault"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
)

// DefaultMergeRetries bounds how many times an aborted merge (injected
// fault on the merge path) is retried before the error surfaces.
const DefaultMergeRetries = 3

// injected reports whether a merge failure came from the fault injector
// (abort→retry) rather than a hard internal error.
func injected(err error) bool {
	return fault.IsDeviceFault(err) || fault.IsEngineFault(err)
}

// changedList describes one posting list the merge re-encodes.
type changedList struct {
	term   string
	old    *index.PostingList // nil for delta-only terms
	oldN   int
	merged int
	ids    []uint32
	freqs  []uint32
}

// mergePlan is the merge's logical output: re-encoded lists, shared
// lists, and the live document lengths.
type mergePlan struct {
	changed []changedList
	shared  []*index.PostingList
	docLens map[uint32]uint32
}

// build materializes the plan through the ordinary index builder — the
// exact constructor a fresh build over the live corpus would use, which
// is what makes quiesced golden parity hold by construction.
func (p *mergePlan) build(codec index.Codec) (*index.Index, error) {
	b := index.NewBuilder(codec)
	for _, pl := range p.shared {
		b.AddPrebuilt(pl)
	}
	for _, ch := range p.changed {
		if len(ch.ids) == 0 {
			continue // fully tombstoned: the term leaves the dictionary
		}
		if err := b.AddPostings(ch.term, ch.ids, ch.freqs); err != nil {
			return nil, err
		}
	}
	for id, l := range p.docLens {
		b.SetDocLen(id, l)
	}
	return b.Build()
}

// planMerge computes the merged logical corpus: every main term filtered
// through the shadow set and unioned with the delta's live postings,
// plus delta-only terms, plus the live document-length map.
func planMerge(main *index.Index, v *View) (*mergePlan, error) {
	p := &mergePlan{docLens: make(map[uint32]uint32)}

	for d, l := range main.DocLens {
		if l > 0 && v.docs[uint32(d)] == nil {
			p.docLens[uint32(d)] = l
		}
	}
	for id, rec := range v.docs {
		if rec.live() {
			p.docLens[id] = rec.length
		}
	}

	for _, term := range main.Terms() {
		pl, _ := main.Lookup(term)
		deltaIDs := v.postings[term]
		ids := pl.DocIDs()
		shadowed := false
		for _, d := range ids {
			if v.docs[d] != nil {
				shadowed = true
				break
			}
		}
		if !shadowed && len(deltaIDs) == 0 {
			p.shared = append(p.shared, pl)
			continue
		}
		mIDs, mFreqs := mergePostings(pl, ids, v, term)
		p.changed = append(p.changed, changedList{
			term: term, old: pl, oldN: pl.N, merged: len(mIDs), ids: mIDs, freqs: mFreqs,
		})
	}

	// Delta-only terms (absent from the main dictionary), sorted for a
	// deterministic device-submission order.
	var fresh []string
	for term := range v.postings {
		if _, ok := main.Lookup(term); !ok {
			fresh = append(fresh, term)
		}
	}
	sort.Strings(fresh)
	for _, term := range fresh {
		mIDs, mFreqs := mergePostings(nil, nil, v, term)
		p.changed = append(p.changed, changedList{
			term: term, merged: len(mIDs), ids: mIDs, freqs: mFreqs,
		})
	}
	return p, nil
}

// mergePostings merges one term's live main postings (shadow-filtered)
// with its live delta postings, both ascending.
func mergePostings(pl *index.PostingList, mainIDs []uint32, v *View, term string) ([]uint32, []uint32) {
	deltaIDs := v.postings[term]
	ids := make([]uint32, 0, len(mainIDs)+len(deltaIDs))
	freqs := make([]uint32, 0, len(mainIDs)+len(deltaIDs))
	i, j := 0, 0
	for i < len(mainIDs) || j < len(deltaIDs) {
		if i < len(mainIDs) && v.docs[mainIDs[i]] != nil {
			i++ // shadowed: superseded or tombstoned
			continue
		}
		takeMain := j >= len(deltaIDs) || (i < len(mainIDs) && mainIDs[i] < deltaIDs[j])
		if takeMain {
			if i >= len(mainIDs) {
				break
			}
			ids = append(ids, mainIDs[i])
			freqs = append(freqs, pl.FreqOf(i))
			i++
		} else {
			d := deltaIDs[j]
			ids = append(ids, d)
			freqs = append(freqs, v.docs[d].tf[term])
			j++
		}
	}
	return ids, freqs
}

// priceChanged bills one re-encoded list's device path on the shared
// runtime: upload the old compressed blocks, decompress, migrate the
// merged expansion back to the host. Each submission passes the
// device's fault hook, so an injected device fault aborts the merge.
func priceChanged(h *gpu.QueryStream, cpuM *hwmodel.CPUModel, gm *hwmodel.GPUModel, ch changedList) error {
	type step struct {
		class gpu.EngineClass
		op    exec.Op
	}
	var steps []step
	if ch.old != nil {
		steps = append(steps,
			step{gpu.CopyEngine, exec.Op{Kind: exec.OpUpload, Arg: exec.ListOperand(ch.old)}},
			step{gpu.ComputeEngine, exec.Op{Kind: exec.OpDecompress, Arg: exec.ListOperand(ch.old), LongLen: ch.oldN}},
		)
	} else {
		steps = append(steps,
			step{gpu.CopyEngine, exec.Op{Kind: exec.OpUpload, ShortLen: ch.merged}},
		)
	}
	steps = append(steps, step{gpu.CopyOutEngine, exec.Op{Kind: exec.OpMigrate, ShortLen: ch.merged}})
	for _, s := range steps {
		est := s.op.Estimate(cpuM, gm)
		if err := h.Submit(s.class, func(st *gpu.Stream) error {
			st.AddTime(est)
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}
