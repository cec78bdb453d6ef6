package main

import (
	"math"
	"sort"
	"strings"
	"sync"

	"griffin/internal/index"
	"griffin/internal/kernels"
	"griffin/internal/rank"
)

// oracle answers conjunctive BM25 top-k queries by brute force over fully
// decoded posting lists: a positional merge intersects them, frequencies
// are read by position, and scores are summed in fetch order with the
// BM25 term formula (rank.Scorer.ScoreTerm, the one piece it shares with
// the engine). It shares no intersection, skip-pointer, frequency lookup
// or selection code, so a defect common to every engine mode still shows
// as a wrong result. It costs a fraction of a
// CPU-only engine run, which lets the check cover every read.
type oracle struct {
	ix     *index.Index
	scorer *rank.Scorer
	lists  map[string]decoded
}

type decoded struct {
	pl       *index.PostingList
	ids, tfs []uint32
}

func newOracle(ix *index.Index) *oracle {
	return &oracle{ix: ix, scorer: rank.NewScorer(ix, rank.DefaultBM25()), lists: map[string]decoded{}}
}

// answers returns the oracle's top-k and match count for each distinct
// query, keyed by its terms, computed on two goroutines.
func (o *oracle) answers(queries [][]string, k int) map[string]answer {
	out := map[string]answer{}
	var uniq [][]string
	for _, q := range queries {
		key := strings.Join(q, " ")
		if _, ok := out[key]; !ok {
			out[key] = answer{}
			uniq = append(uniq, q)
			for _, t := range q {
				o.decode(t)
			}
		}
	}
	res := make([]answer, len(uniq))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(uniq); j += 2 {
				res[j] = o.topK(uniq[j], k)
			}
		}(w)
	}
	wg.Wait()
	for j, q := range uniq {
		out[strings.Join(q, " ")] = res[j]
	}
	return out
}

type answer struct {
	docs    []kernels.ScoredDoc
	matches int
}

func (o *oracle) decode(term string) {
	if _, ok := o.lists[term]; ok {
		return
	}
	pl, ok := o.ix.Lookup(term)
	if !ok {
		return
	}
	d := decoded{pl: pl, ids: pl.EF.Decompress(), tfs: make([]uint32, pl.N)}
	for i := range d.tfs {
		d.tfs[i] = pl.FreqOf(i)
	}
	o.lists[term] = d
}

// topK returns the k best documents containing every term, by descending
// score and ascending doc ID on ties, and the number of such documents.
// Every term must have been decoded.
func (o *oracle) topK(terms []string, k int) answer {
	lists := make([]decoded, len(terms))
	for i, t := range terms {
		d, ok := o.lists[t]
		if !ok {
			return answer{docs: []kernels.ScoredDoc{}}
		}
		lists[i] = d
	}
	// Walk the shortest list; every other list keeps a cursor that only
	// moves forward, and a document qualifies when all cursors land on it.
	short := 0
	for i, l := range lists {
		if len(l.ids) < len(lists[short].ids) {
			short = i
		}
	}
	pos := make([]int, len(lists))
	top := []kernels.ScoredDoc{}
	n := 0
next:
	for _, d := range lists[short].ids {
		for i, l := range lists {
			p := gallop(l.ids, pos[i], d)
			pos[i] = p
			if p == len(l.ids) {
				break next
			}
			if l.ids[p] != d {
				continue next
			}
		}
		n++
		var score float64
		for i, l := range lists {
			score += o.scorer.ScoreTerm(l.pl.ScoringN(), l.tfs[pos[i]], o.ix.DocLen(d))
		}
		top = keepTop(top, kernels.ScoredDoc{DocID: d, Score: float32(score)}, k)
	}
	return answer{docs: top, matches: n}
}

// gallop returns the first index at or after from whose value is >= v.
func gallop(ids []uint32, from int, v uint32) int {
	step := 1
	hi := from
	for hi < len(ids) && ids[hi] < v {
		from = hi + 1
		hi += step
		step *= 2
	}
	hi = min(hi, len(ids))
	for from < hi {
		mid := (from + hi) / 2
		if ids[mid] < v {
			from = mid + 1
		} else {
			hi = mid
		}
	}
	return from
}

// keepTop inserts c into top, a list of at most k documents in result
// order, dropping the weakest when it overflows.
func keepTop(top []kernels.ScoredDoc, c kernels.ScoredDoc, k int) []kernels.ScoredDoc {
	if len(top) == k && !beats(c, top[k-1]) {
		return top
	}
	i := sort.Search(len(top), func(j int) bool { return beats(c, top[j]) })
	if len(top) < k {
		top = append(top, kernels.ScoredDoc{})
	}
	copy(top[i+1:], top[i:])
	top[i] = c
	return top
}

// beats is the result order: higher score first, then lower doc ID.
func beats(a, b kernels.ScoredDoc) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.DocID < b.DocID
}

// sameDocs compares two top-k lists by doc ID and exact score bits.
func sameDocs(a, b []kernels.ScoredDoc) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].DocID != b[i].DocID || math.Float32bits(a[i].Score) != math.Float32bits(b[i].Score) {
			return false
		}
	}
	return true
}
