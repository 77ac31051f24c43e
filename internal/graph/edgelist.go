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
	i := sort.Search(len(el), func(i int) bool {
		return !el[i].Less(Edge{Src: src, Dst: dst})
	})
	return i < len(el) && el[i].Src == src && el[i].Dst == dst
}

// ErrNotCanonical is returned by operations that require canonical input.
var ErrNotCanonical = errors.New("graph: edge list is not canonical (sorted, deduplicated)")

// Minus returns a \ b. Both lists must be canonical; the result is
// canonical. Identity is by endpoints only.
func Minus(a, b EdgeList) EdgeList { return MinusInto(make(EdgeList, 0, len(a)), a, b) }

// MinusInto is Minus appending to out, which must not overlap a or b: a
// caller that applies many batches in turn reuses one buffer instead of
// allocating a list per step.
func MinusInto(out, a, b EdgeList) EdgeList {
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
func Union(a, b EdgeList) EdgeList { return UnionInto(make(EdgeList, 0, len(a)+len(b)), a, b) }

// UnionInto is Union appending to out, which must not overlap a or b.
func UnionInto(out, a, b EdgeList) EdgeList {
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

// Intersect returns a ∩ b. Both lists must be canonical; the result is
// canonical. a's weights win.
func Intersect(a, b EdgeList) EdgeList {
	out := make(EdgeList, 0)
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
