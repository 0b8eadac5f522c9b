package exec

// The run sorter and the merge heap below are the standard library's
// algorithms specialized to normalized keys. They keep the library's
// control flow, so they make exactly the comparisons, in exactly the order,
// that slices.SortStableFunc (or sort.SliceStable) and container/heap make:
// the counted comparisons of Table 1 must not depend on how a comparison is
// computed. Only where the library moves elements by repeated swaps do they
// copy instead, which yields the same permutation.

// sortSlots stably sorts a run's slot order by the slots' keys: insertion
// sort over blocks of 20, then SymMerge with rotations (slices'
// stableCmpFunc).
func (s *Sort) sortSlots(perm []int32) {
	n := len(perm)
	blockSize := 20 // must be > 0
	a, b := 0, blockSize
	for b <= n {
		s.insertionSort(perm, a, b)
		a = b
		b += blockSize
	}
	s.insertionSort(perm, a, n)

	for blockSize < n {
		a, b = 0, 2*blockSize
		for b <= n {
			s.symMerge(perm, a, a+blockSize, b)
			a = b
			b += 2 * blockSize
		}
		if m := a + blockSize; m < n {
			s.symMerge(perm, a, m, n)
		}
		blockSize *= 2
	}
}

func (s *Sort) insertionSort(perm []int32, a, b int) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && s.less(s.key(perm[j]), s.key(perm[j-1])); j-- {
			perm[j], perm[j-1] = perm[j-1], perm[j]
		}
	}
}

// symMerge merges the sorted perm[a:m] and perm[m:b] in place (Kim and
// Kutzner's SymMerge, as slices implements it).
func (s *Sort) symMerge(perm []int32, a, m, b int) {
	// Insert perm[a] straight into perm[m:b] when perm[a:m] has one element.
	if m-a == 1 {
		// Binary search for the lowest i in [m, b) with perm[i] >= perm[a],
		// or b when there is none.
		i := m
		j := b
		for i < j {
			h := int(uint(i+j) >> 1)
			if s.less(s.key(perm[h]), s.key(perm[a])) {
				i = h + 1
			} else {
				j = h
			}
		}
		// Move perm[a] to i-1 (the library swaps it along).
		x := perm[a]
		copy(perm[a:i-1], perm[a+1:i])
		perm[i-1] = x
		return
	}

	// Insert perm[m] straight into perm[a:m] when perm[m:b] has one element.
	if b-m == 1 {
		// Binary search for the lowest i in [a, m) with perm[i] > perm[m],
		// or m when there is none.
		i := a
		j := m
		for i < j {
			h := int(uint(i+j) >> 1)
			if !s.less(s.key(perm[m]), s.key(perm[h])) {
				i = h + 1
			} else {
				j = h
			}
		}
		// Move perm[m] to i (the library swaps it along).
		x := perm[m]
		copy(perm[i+1:m+1], perm[i:m])
		perm[i] = x
		return
	}

	mid := int(uint(a+b) >> 1)
	n := mid + m
	var start, r int
	if m > mid {
		start = n - b
		r = mid
	} else {
		start = a
		r = m
	}
	p := n - 1

	for start < r {
		c := int(uint(start+r) >> 1)
		if !s.less(s.key(perm[p-c]), s.key(perm[c])) {
			start = c + 1
		} else {
			r = c
		}
	}

	end := n - start
	if start < m && m < end {
		s.rotate(perm, start, m, end)
	}
	if a < start && start < mid {
		s.symMerge(perm, a, start, mid)
	}
	if mid < end && end < b {
		s.symMerge(perm, mid, end, b)
	}
}

// rotate exchanges the consecutive blocks perm[a:m] and perm[m:b]: it
// parks the shorter block in scratch, slides the longer one over it and
// puts the parked block back at the other end.
func (s *Sort) rotate(perm []int32, a, m, b int) {
	if m-a <= b-m {
		s.scratch = append(s.scratch[:0], perm[a:m]...)
		copy(perm[a:], perm[m:b])
		copy(perm[a+b-m:], s.scratch)
	} else {
		s.scratch = append(s.scratch[:0], perm[m:b]...)
		copy(perm[a+b-m:], perm[a:m])
		copy(perm[a:], s.scratch)
	}
}

// The merge heap is container/heap's Init, Fix(h, 0) and Pop over run
// cursors, ordered by key with the run index breaking ties (the last word
// of a cursor's key), so equal keys leave the merge in run order.

func (m *mergeState) lessAt(i, j int) bool {
	return m.s.less(m.heap[i].key, m.heap[j].key)
}

func (m *mergeState) init() {
	n := len(m.heap)
	for i := n/2 - 1; i >= 0; i-- {
		m.down(i, n)
	}
}

// fixTop restores the heap after the root's key changed. container/heap's
// Fix would go on to sift up when down did not move the root, which at the
// root compares nothing.
func (m *mergeState) fixTop() { m.down(0, len(m.heap)) }

// pop removes the root.
func (m *mergeState) pop() {
	n := len(m.heap) - 1
	m.heap[0], m.heap[n] = m.heap[n], m.heap[0]
	m.down(0, n)
	m.heap[n] = nil
	m.heap = m.heap[:n]
}

func (m *mergeState) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && m.lessAt(j2, j1) {
			j = j2 // right child
		}
		if !m.lessAt(j, i) {
			break
		}
		m.heap[i], m.heap[j] = m.heap[j], m.heap[i]
		i = j
	}
}
