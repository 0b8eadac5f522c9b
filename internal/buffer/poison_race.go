//go:build race

package buffer

// poisonFrames fills every recycled page buffer with poisonByte in
// race-detector builds, so a use of Handle.Bytes after Unfix reads poison.
const poisonFrames = true
