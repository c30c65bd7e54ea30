package main

import (
	"fmt"

	"cinct"
	"cinct/internal/querygen"
)

// answer is what one read operation returned: the summary count and,
// for Occurrences queries, the hits in the order received.
type answer struct {
	count int
	hits  []cinct.Hit
}

// bruteForce answers q by scanning the generated corpus, the oracle
// every sampled answer is compared with. Scanning trajectories in ID
// order and offsets in travel order yields hits in the canonical
// (Trajectory, Offset) order the index promises.
func bruteForce(c *corpus, q cinct.Query) answer {
	if q.Kind == cinct.CountOnly && q.Interval == nil {
		return answer{count: querygen.NaiveCount(c.trajs, q.Path)}
	}
	var a answer
	m := len(q.Path)
	for k, tr := range c.trajs {
		for i := 0; i+m <= len(tr); i++ {
			if !matchAt(tr, i, q.Path) {
				continue
			}
			h := cinct.Hit{Match: cinct.Match{Trajectory: k, Offset: i}}
			if q.Interval != nil {
				at := c.times[k][i]
				if at < q.Interval.From || at > q.Interval.To {
					continue
				}
				h.EnteredAt = at
			}
			a.count++
			if q.Kind == cinct.Occurrences && (q.Limit == 0 || len(a.hits) < q.Limit) {
				a.hits = append(a.hits, h)
			}
		}
		if q.Kind == cinct.Occurrences && q.Limit > 0 && len(a.hits) == q.Limit {
			break
		}
	}
	if q.Kind == cinct.Occurrences {
		// A bounded page's summary counts the hits it carries.
		a.count = len(a.hits)
	}
	return a
}

func matchAt(tr []uint32, i int, path []uint32) bool {
	for j, e := range path {
		if tr[i+j] != e {
			return false
		}
	}
	return true
}

// sameAnswer reports how got differs from want, or "" when they agree.
func sameAnswer(q cinct.Query, got, want answer) string {
	if got.count != want.count {
		return fmt.Sprintf("count %d, oracle %d", got.count, want.count)
	}
	if q.Kind == cinct.CountOnly {
		return ""
	}
	if len(got.hits) != len(want.hits) {
		return fmt.Sprintf("%d hits, oracle %d", len(got.hits), len(want.hits))
	}
	for i := range got.hits {
		if got.hits[i] != want.hits[i] {
			return fmt.Sprintf("hit %d is %+v, oracle %+v", i, got.hits[i], want.hits[i])
		}
	}
	return ""
}
