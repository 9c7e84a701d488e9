// Package dominance implements the building blocks of the paper's
// Theorem 6 (top-k 3D dominance): given weighted points in ℝ³ and a query
// corner q = (x, y, z), an element e satisfies q when e_x ≤ x, e_y ≤ y and
// e_z ≤ z ("the hotels at most this expensive, this far, this insecure").
//
// Three structures are provided:
//
//   - MinZ: a 3D dominance emptiness/min structure — "is any point
//     dominated by q, and which dominated point has minimal z?" — built by
//     sweeping x and recording one persistent version of the (y → min z)
//     staircase per point (the Sarnak–Tarjan idea the paper's point-
//     location subroutine rests on). O(n log n) space, O(log n) query.
//   - Max (via core.MaxFromEmptiness over MinZ): the max-reporting
//     structure playing the role of the paper's winner-region point
//     location [27], with O(log² n) query instead of O(log^1.5 n) — see
//     DESIGN.md's substitution table.
//   - Prioritized: 4-constraint dominance reporting (x, y, z, weight ≥ τ),
//     the role of Afshani–Arge–Larsen 4D dominance [2], as a three-level
//     canonical decomposition (weight prefix → x prefix → y-sorted arrays
//     with an implicit min-z segment tree). O(n log² n) space,
//     O(log³ n + t) query.
package dominance

import (
	"math"
	"sort"

	"topk/internal/core"
	"topk/internal/em"
	"topk/internal/pstree"
)

// Pt3 is a point in ℝ³. It doubles as the query type: interpreted as a
// query, it is the dominance corner (x, y, z).
type Pt3 struct {
	X, Y, Z float64
}

// Match reports whether e is dominated by the query corner q.
func Match(q Pt3, e Pt3) bool { return e.X <= q.X && e.Y <= q.Y && e.Z <= q.Z }

// hasNaN reports whether a query corner has a NaN coordinate, which
// dominates nothing.
func (p Pt3) hasNaN() bool { return math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsNaN(p.Z) }

// Lambda is the polynomial-boundedness exponent: distinct outcomes q(D)
// are determined by the coordinate ranks of (x, y, z), so there are at
// most (n+1)³ of them.
const Lambda = 3

// stepVal is one staircase step: the minimal z among swept points with
// e_y ≤ y for y at/after the step's key, plus the point realizing it.
type stepVal struct {
	z  float64
	it core.Item[Pt3]
}

// MinZ answers 3D dominance min-z (and hence emptiness) queries on a
// static point set.
type MinZ struct {
	xs       []float64 // x-coordinates, ascending (with duplicates)
	versions []pstree.Version[stepVal]
	tracker  *em.Tracker
}

// NewMinZ builds the sweep structure. tracker may be nil.
func NewMinZ(items []core.Item[Pt3], tracker *em.Tracker) *MinZ {
	pts := make([]core.Item[Pt3], len(items))
	copy(pts, items)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Value.X < pts[j].Value.X })

	m := &MinZ{
		xs:       make([]float64, len(pts)),
		versions: make([]pstree.Version[stepVal], 1, len(pts)+1),
		tracker:  tracker,
	}
	if tracker != nil && len(pts) > 0 {
		// Path copying stores O(log n) persistent nodes (~6 words each)
		// per sweep event.
		tracker.AllocRun(int(em.BlocksFor(len(pts), 6*(log2ceil(len(pts))+1), tracker.B())))
	}
	var cur pstree.Version[stepVal]
	for i, it := range pts {
		m.xs[i] = it.Value.X
		p := it.Value
		// Skip if the staircase is already at or below z at p.Y.
		if _, fv, ok := cur.Floor(p.Y); !ok || fv.z > p.Z {
			// Splice out the superseded steps: keys ≥ p.Y with z ≥ p.Z
			// form a contiguous run (z strictly decreases along steps).
			last, has := p.Y, false
			cur.Ascend(p.Y, func(k float64, v stepVal) bool {
				if v.z >= p.Z {
					last, has = k, true
					return true
				}
				return false
			})
			if has {
				cur, _ = cur.DeleteRange(p.Y, last)
			}
			cur = cur.Insert(p.Y, stepVal{z: p.Z, it: it})
		}
		m.versions = append(m.versions, cur)
	}
	return m
}

// N returns the number of indexed points.
func (m *MinZ) N() int { return len(m.xs) }

// MinItem returns a point dominated by q with the minimal z-coordinate,
// charging v.
func (m *MinZ) MinItem(v *em.QueryView, q Pt3) (core.Item[Pt3], bool) {
	if q.hasNaN() {
		return core.Item[Pt3]{}, false
	}
	if m.tracker != nil {
		m.tracker.PathCost(v, 2*log2ceil(len(m.xs))+2)
	}
	ver := sort.Search(len(m.xs), func(i int) bool { return m.xs[i] > q.X })
	_, fv, ok := m.versions[ver].Floor(q.Y)
	if !ok || fv.z > q.Z {
		return core.Item[Pt3]{}, false
	}
	return fv.it, true
}

// NonEmpty implements core.Emptiness[Pt3].
func (m *MinZ) NonEmpty(v *em.QueryView, q Pt3) bool {
	_, ok := m.MinItem(v, q)
	return ok
}

// NewEmptinessFactory adapts MinZ to the core emptiness-factory signature.
func NewEmptinessFactory(tracker *em.Tracker) core.EmptinessFactory[Pt3, Pt3] {
	return func(items []core.Item[Pt3]) core.Emptiness[Pt3] {
		return NewMinZ(items, tracker)
	}
}

// NewMax builds the max-reporting structure for 3D dominance: the
// emptiness-hierarchy combinator over MinZ structures.
func NewMax(items []core.Item[Pt3], tracker *em.Tracker) (*core.MaxFromEmptiness[Pt3, Pt3], error) {
	if err := core.ValidateWeights(items); err != nil {
		return nil, err
	}
	return core.NewMaxFromEmptiness(items, NewEmptinessFactory(tracker), tracker), nil
}

func log2ceil(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}
