package parallel

import (
	"repro/internal/bitmap"
	"repro/internal/tuple"
)

// Filtered is Router.Route's answer for a dividend tuple the bit-vector
// filter drops before it is shipped.
const Filtered = -1

// Router is the §6 dividend partitioning function, compiled once per query
// and shared by every exchange that ships dividend tuples: the morsel and
// coordinator partitioners here and both netexchange shipping engines.
//
// A tuple first meets the Babb bit-vector filter, probed with the hash of
// its divisor attributes; survivors go to destination hash mod k, where the
// hash is over the routing columns (quotient partitioning) or, with none,
// over the divisor attributes that clustered the divisor (divisor
// partitioning). Both hashes come from tuple.Schema.HashFunc, bit-identical
// to Schema.Hash, and the divisor hash is computed only when the filter or
// the destination needs it. A Router has no mutable state, so any number of
// producers may share one.
type Router struct {
	divHash   func(tuple.Tuple) uint64 // nil when neither filter nor destination uses it
	routeHash func(tuple.Tuple) uint64 // nil: the destination is the divisor hash
	bv        *bitmap.Bitmap
	k         uint64
	pow2      bool // k is a power of two: hash mod k is a mask, not a division
}

// NewRouter compiles the routing of dividend schema ds over k destinations.
// routeCols are the partitioning columns (empty routes on divisorCols); bv,
// when non-nil, is the bit-vector filter probed at divisor hash mod its
// length.
func NewRouter(ds *tuple.Schema, divisorCols, routeCols []int, bv *bitmap.Bitmap, k int) *Router {
	r := &Router{bv: bv, k: uint64(k), pow2: k > 0 && k&(k-1) == 0}
	if bv != nil || len(routeCols) == 0 {
		r.divHash = ds.HashFunc(divisorCols)
	}
	if len(routeCols) > 0 {
		r.routeHash = ds.HashFunc(routeCols)
	}
	return r
}

// Route returns t's destination in [0, k), or Filtered.
func (r *Router) Route(t tuple.Tuple) int {
	var h uint64
	if r.divHash != nil {
		h = r.divHash(t)
		if r.bv != nil && !r.bv.Test(int(h%uint64(r.bv.Len()))) {
			return Filtered
		}
	}
	if r.routeHash != nil {
		h = r.routeHash(t)
	}
	if r.pow2 {
		return int(h & (r.k - 1))
	}
	return int(h % r.k)
}
