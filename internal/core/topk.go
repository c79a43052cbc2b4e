package core

import "sort"

// topK retains the k greatest items (by less: a strict total order
// where less(a, b) means a ranks below b) from a stream, holding at
// most k items at any moment. The heap root is the weakest retained
// item, so each push against a full heap is a single comparison in the
// common case where the candidate doesn't make the cut. Because less
// is a total order, the selected set — and therefore sorted() — is
// identical to sorting the whole stream and truncating, which keeps
// top-k artifacts byte-identical to their full-sort renderings.
type topK[T any] struct {
	k     int
	less  func(a, b T) bool
	items []T // min-heap on less: items[0] is the weakest retained
}

// newTopK reserves nothing, so a k far past the stream costs nothing.
func newTopK[T any](k int, less func(a, b T) bool) *topK[T] {
	return &topK[T]{k: k, less: less}
}

func (t *topK[T]) push(x T) {
	if t.k <= 0 {
		return
	}
	if len(t.items) < t.k {
		t.items = append(t.items, x)
		t.siftUp(len(t.items) - 1)
		return
	}
	if !t.less(t.items[0], x) {
		return // weaker than everything retained
	}
	t.items[0] = x
	t.siftDown(0)
}

func (t *topK[T]) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.less(t.items[i], t.items[p]) {
			return
		}
		t.items[i], t.items[p] = t.items[p], t.items[i]
		i = p
	}
}

func (t *topK[T]) siftDown(i int) {
	n := len(t.items)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && t.less(t.items[l], t.items[m]) {
			m = l
		}
		if r < n && t.less(t.items[r], t.items[m]) {
			m = r
		}
		if m == i {
			return
		}
		t.items[i], t.items[m] = t.items[m], t.items[i]
		i = m
	}
}

// sorted drains the heap into best-first order (greatest first).
func (t *topK[T]) sorted() []T {
	out := append([]T(nil), t.items...)
	sort.Slice(out, func(i, j int) bool { return t.less(out[j], out[i]) })
	return out
}
