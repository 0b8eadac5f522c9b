//go:build !race

package buffer

// poisonFrames is off outside race-detector builds: recycled page buffers
// keep their stale contents until overwritten.
const poisonFrames = false
