package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/types"
)

// Encoder builds the binary image of a savepoint object (table
// snapshot, store image). All integers are uvarint-encoded.
type Encoder struct {
	b   bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded image.
func (e *Encoder) Bytes() []byte { return e.b.Bytes() }

// U64 writes an unsigned integer.
func (e *Encoder) U64(v uint64) { e.b.Write(e.tmp[:binary.PutUvarint(e.tmp[:], v)]) }

// I64 writes a signed integer (zig-zag).
func (e *Encoder) I64(v int64) { e.b.Write(e.tmp[:binary.PutVarint(e.tmp[:], v)]) }

// Bool writes a boolean.
func (e *Encoder) Bool(v bool) {
	if v {
		e.b.WriteByte(1)
	} else {
		e.b.WriteByte(0)
	}
}

// Str writes a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U64(uint64(len(s)))
	e.b.WriteString(s)
}

// U64s writes a length-prefixed slice of unsigned integers.
func (e *Encoder) U64s(vs []uint64) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.U64(v)
	}
}

// U32s writes a length-prefixed slice of 32-bit codes.
func (e *Encoder) U32s(vs []uint32) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.U64(uint64(v))
	}
}

// Value writes a typed value (NULL included).
func (e *Encoder) Value(v types.Value) {
	e.b.WriteByte(byte(v.Kind))
	switch v.Kind {
	case types.KindInvalid:
	case types.KindString:
		e.Str(v.S)
	case types.KindFloat64:
		e.U64(math.Float64bits(v.F))
	default:
		e.U64(uint64(v.I))
	}
}

// Decoder reads images produced by Encoder.
type Decoder struct {
	b *bytes.Buffer
}

// NewDecoder wraps an image.
func NewDecoder(data []byte) *Decoder { return &Decoder{b: bytes.NewBuffer(data)} }

// Len returns the number of unread bytes.
func (d *Decoder) Len() int { return d.b.Len() }

// U64 reads an unsigned integer.
func (d *Decoder) U64() (uint64, error) { return binary.ReadUvarint(d.b) }

// I64 reads a signed integer.
func (d *Decoder) I64() (int64, error) { return binary.ReadVarint(d.b) }

// Bool reads a boolean.
func (d *Decoder) Bool() (bool, error) {
	c, err := d.b.ReadByte()
	return c != 0, err
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() (string, error) {
	n, err := d.U64()
	if err != nil {
		return "", err
	}
	if n > uint64(d.b.Len()) {
		return "", fmt.Errorf("persist: string length %d exceeds buffer", n)
	}
	return string(d.b.Next(int(n))), nil
}

// U64s reads a length-prefixed slice of unsigned integers.
func (d *Decoder) U64s() ([]uint64, error) {
	n, err := d.U64()
	if err != nil {
		return nil, err
	}
	out := make([]uint64, 0, capHint(n, d.b.Len()))
	for i := uint64(0); i < n; i++ {
		v, err := d.U64()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// U32s reads a length-prefixed slice of 32-bit codes.
func (d *Decoder) U32s() ([]uint32, error) {
	n, err := d.U64()
	if err != nil {
		return nil, err
	}
	out := make([]uint32, 0, capHint(n, d.b.Len()))
	for i := uint64(0); i < n; i++ {
		v, err := d.U64()
		if err != nil {
			return nil, err
		}
		out = append(out, uint32(v))
	}
	return out, nil
}

// Value reads a typed value.
func (d *Decoder) Value() (types.Value, error) {
	k, err := d.b.ReadByte()
	if err != nil {
		return types.Null, err
	}
	kind := types.Kind(k)
	switch kind {
	case types.KindInvalid:
		return types.Null, nil
	case types.KindString:
		s, err := d.Str()
		if err != nil {
			return types.Null, err
		}
		return types.Str(s), nil
	case types.KindFloat64:
		bits, err := d.U64()
		if err != nil {
			return types.Null, err
		}
		return types.Float(math.Float64frombits(bits)), nil
	case types.KindInt64, types.KindDate, types.KindBool:
		u, err := d.U64()
		if err != nil {
			return types.Null, err
		}
		return types.Value{Kind: kind, I: int64(u)}, nil
	default:
		return types.Null, fmt.Errorf("persist: invalid value kind %d", k)
	}
}

// capHint bounds a pre-allocation by what the buffer could possibly
// hold, defending against corrupt length prefixes.
func capHint(n uint64, avail int) int {
	if n > uint64(avail) {
		return avail
	}
	return int(n)
}
