package tuple

import (
	"encoding/binary"
	"math/bits"
)

// NormKey is an order-preserving encoding of a sort key into machine words,
// compiled once per (schema, key columns): LessWords orders two encodings
// as CompareFunc(cols) orders the tuples, and equal encodings are equal
// keys. An
// int64 column becomes one word with its sign bit flipped; a CHAR(w) column
// becomes ⌈w/8⌉ big-endian words, the last one zero-padded. Char fields are
// themselves zero-padded to their width, so the padding adds no ties and
// breaks none. The two kinds cover every schema, so every sort key encodes.
type NormKey struct {
	parts []normPart
	words int
}

type normPart struct {
	kind       Kind
	off, width int
}

// NormKey compiles the key encoding of the listed columns, major to minor.
func (s *Schema) NormKey(cols []int) *NormKey {
	k := &NormKey{parts: make([]normPart, len(cols))}
	for i, c := range cols {
		f := s.fields[c]
		k.parts[i] = normPart{kind: f.Kind, off: s.offsets[c], width: f.Width}
		k.words += (f.Width + 7) / 8
	}
	return k
}

// Words returns the number of words one encoded key occupies.
func (k *NormKey) Words() int { return k.words }

// Encode writes the key of t into dst, which holds at least Words() words.
func (k *NormKey) Encode(dst []uint64, t Tuple) {
	i := 0
	for _, p := range k.parts {
		if p.kind == KindInt64 {
			dst[i] = binary.LittleEndian.Uint64(t[p.off:p.off+8]) ^ 1<<63
			i++
			continue
		}
		field := t[p.off : p.off+p.width]
		for ; len(field) >= 8; field = field[8:] {
			dst[i] = binary.BigEndian.Uint64(field)
			i++
		}
		if len(field) > 0 {
			var pad [8]byte
			copy(pad[:], field)
			dst[i] = binary.BigEndian.Uint64(pad[:])
			i++
		}
	}
}

// LessWords reports whether encoded key a orders before b, a key of the
// same length: whether a is less than b read as multi-word unsigned
// integers, most significant word first. It is computed as the borrow of
// the subtraction a-b, without a data-dependent branch, because a sort's
// comparisons are as unpredictable as its input.
func LessWords(a, b []uint64) bool {
	b = b[:len(a)]
	var lt uint64
	for i := len(a) - 1; i >= 0; i-- {
		_, lt = bits.Sub64(a[i], b[i], lt)
	}
	return lt != 0
}
