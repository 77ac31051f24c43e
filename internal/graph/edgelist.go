package graph

import (
	"errors"
	"sort"
)

// EdgeList is a slice of edges with set-flavoured helpers. Most operations
// require or establish (src, dst) sorted order with no duplicates; such a
// list is called canonical.
type EdgeList []Edge

// Sort orders the list by (src, dst) in place.
func (el EdgeList) Sort() {
	sort.Slice(el, func(i, j int) bool { return el[i].Less(el[j]) })
}

// IsCanonical reports whether the list is sorted by (src, dst) with no
// duplicate endpoints.
func (el EdgeList) IsCanonical() bool {
	for i := 1; i < len(el); i++ {
		if !el[i-1].Less(el[i]) {
			return false
		}
	}
	return true
}

// Canonicalize sorts the list and removes duplicate (src, dst) pairs,
// keeping the first occurrence. It returns the (possibly shorter) list.
func (el EdgeList) Canonicalize() EdgeList {
	if len(el) == 0 {
		return el
	}
	el.Sort()
	out := el[:1]
	for _, e := range el[1:] {
		last := out[len(out)-1]
		if e.Src == last.Src && e.Dst == last.Dst {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Clone returns a deep copy.
func (el EdgeList) Clone() EdgeList {
	out := make(EdgeList, len(el))
	copy(out, el)
	return out
}

// MaxVertex returns the largest vertex id referenced, or -1 if empty.
func (el EdgeList) MaxVertex() int {
	max := -1
	for _, e := range el {
		if int(e.Src) > max {
			max = int(e.Src)
		}
		if int(e.Dst) > max {
			max = int(e.Dst)
		}
	}
	return max
}

// Contains reports whether a canonical list contains an edge with the given
// endpoints, using binary search.
func (el EdgeList) Contains(src, dst VertexID) bool {
	_, ok := el.search(0, Edge{Src: src, Dst: dst})
	return ok
}

// search returns the first position at or after from whose edge is not
// ordered before e, and whether that edge has e's endpoints. It gallops:
// the probe doubles its stride from from before bisecting, so a caller
// that walks a small sorted list through a big one pays O(log gap) per
// edge however the gaps fall, and a one-off lookup pays O(log n).
func (el EdgeList) search(from int, e Edge) (int, bool) {
	lo, hi := from, len(el)
	for step := 1; lo+step < len(el); step *= 2 {
		if !el[lo+step].Less(e) {
			hi = lo + step
			break
		}
		lo += step
	}
	i := lo + sort.Search(hi-lo, func(i int) bool { return !el[lo+i].Less(e) })
	return i, i < len(el) && el[i].Src == e.Src && el[i].Dst == e.Dst
}

// ErrNotCanonical is returned by operations that require canonical input.
var ErrNotCanonical = errors.New("graph: edge list is not canonical (sorted, deduplicated)")

// Minus returns a \ b. Both lists must be canonical; the result is
// canonical. Identity is by endpoints only.
func Minus(a, b EdgeList) EdgeList {
	out := make(EdgeList, 0, len(a))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Src == b[j].Src && a[i].Dst == b[j].Dst:
			i++
			j++
		case a[i].Less(b[j]):
			out = append(out, a[i])
			i++
		default:
			j++
		}
	}
	return append(out, a[i:]...)
}

// Union returns a ∪ b. Both lists must be canonical; the result is
// canonical. When an edge appears in both, a's copy (and weight) wins.
func Union(a, b EdgeList) EdgeList {
	out := make(EdgeList, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Src == b[j].Src && a[i].Dst == b[j].Dst:
			out = append(out, a[i])
			i++
			j++
		case a[i].Less(b[j]):
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// UnionAll returns the union of any number of canonical lists as one
// canonical list, merging them as a balanced tree so every edge is copied
// O(log k) times rather than once per list. When an edge appears in
// several lists, the earliest list's copy (and weight) wins. A single
// list is returned as is, so the result must not be modified.
func UnionAll(lists ...EdgeList) EdgeList {
	switch len(lists) {
	case 0:
		return EdgeList{}
	case 1:
		return lists[0]
	}
	mid := len(lists) / 2
	return Union(UnionAll(lists[:mid]...), UnionAll(lists[mid:]...))
}

// gallopRatio is how lopsided two lists must be before Intersect searches
// the big one per edge of the small one instead of merging them.
const gallopRatio = 32

// Intersect returns a ∩ b. Both lists must be canonical; the result is
// canonical. a's weights win. When one list is at least gallopRatio times
// shorter than the other, each of its edges is searched for in the longer
// one — O(small · log big) — instead of both being walked end to end.
func Intersect(a, b EdgeList) EdgeList {
	out := make(EdgeList, 0)
	switch {
	case len(a)*gallopRatio <= len(b):
		at := 0
		for _, e := range a {
			var ok bool
			if at, ok = b.search(at, e); ok {
				out = append(out, e)
			}
		}
		return out
	case len(b)*gallopRatio <= len(a):
		at := 0
		for _, e := range b {
			var ok bool
			if at, ok = a.search(at, e); ok {
				out = append(out, a[at])
			}
		}
		return out
	}
	return intersectMerge(out, a, b)
}

// IntersectAll returns the intersection of any number of canonical lists
// as one canonical list, with the first list's weights. It allocates the
// result and nothing else: the shortest list seeds it, and every other
// list filters it in place by a galloping search per surviving edge, so
// the cost follows the shortest list, not the longest. A single list is
// returned as is, so the result must not be modified.
func IntersectAll(lists ...EdgeList) EdgeList {
	switch len(lists) {
	case 0:
		return EdgeList{}
	case 1:
		return lists[0]
	}
	short := 0
	for i, l := range lists {
		if len(l) < len(lists[short]) {
			short = i
		}
	}
	out := append(make(EdgeList, 0, len(lists[short])), lists[short]...)
	for i, l := range lists {
		if i == short {
			continue
		}
		keep, at := 0, 0
		for _, e := range out {
			var ok bool
			if at, ok = l.search(at, e); ok {
				if i == 0 {
					e.W = l[at].W
				}
				out[keep] = e
				keep++
			}
		}
		if out = out[:keep]; keep == 0 {
			break
		}
	}
	return out
}

// intersectMerge appends a ∩ b to out by walking both lists end to end.
func intersectMerge(out, a, b EdgeList) EdgeList {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Src == b[j].Src && a[i].Dst == b[j].Dst:
			out = append(out, a[i])
			i++
			j++
		case a[i].Less(b[j]):
			i++
		default:
			j++
		}
	}
	return out
}

// Patch returns (base \ remove) ∪ add as one canonical list. All three
// lists must be canonical. An edge of add that base keeps has base's
// weight; one that remove takes out first has add's. The cost is the
// copy of base plus a search per edge of remove and add, so patching a
// big list with a small change never walks the big list edge by edge:
// base is copied in runs, between the edges that change something.
func Patch(base, remove, add EdgeList) EdgeList {
	out := make(EdgeList, 0, len(base)+len(add))
	i, r, a := 0, 0, 0
	for r < len(remove) || a < len(add) {
		// The next edge, in canonical order, that changes something.
		fromAdd := r == len(remove) || (a < len(add) && add[a].Less(remove[r]))
		e := Edge{}
		if fromAdd {
			e = add[a]
		} else {
			e = remove[r]
		}
		at, present := base.search(i, e)
		out = append(out, base[i:at]...)
		i = at
		if !fromAdd {
			if present {
				i++
				present = false
			}
			r++
			if a == len(add) || add[a].Src != e.Src || add[a].Dst != e.Dst {
				continue
			}
		}
		if !present {
			out = append(out, add[a])
		}
		a++
	}
	return append(out, base[i:]...)
}

// Equal reports whether two canonical lists contain the same endpoints in
// the same order (weights are ignored, matching edge identity).
func Equal(a, b EdgeList) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Src != b[i].Src || a[i].Dst != b[i].Dst {
			return false
		}
	}
	return true
}

// KeySet returns the set of edge keys in the list.
func (el EdgeList) KeySet() map[EdgeKey]struct{} {
	s := make(map[EdgeKey]struct{}, len(el))
	for _, e := range el {
		s[e.Key()] = struct{}{}
	}
	return s
}
