package persist

import (
	"testing"

	"repro/internal/types"
)

// FuzzDecoder drives every Decoder method over arbitrary bytes. The
// decoder guards recovery against corrupt snapshot images, so no
// input may panic or provoke an attacker-sized allocation — errors
// are the only acceptable outcome.
func FuzzDecoder(f *testing.F) {
	e := NewEncoder()
	e.U64(42)
	e.Str("hello")
	e.I64(-7)
	e.Bool(true)
	e.U64s([]uint64{1, 2, 3})
	e.U32s([]uint32{9, 10})
	e.Value(types.Str("v"))
	e.Value(types.Int(-1))
	e.Value(types.Float(3.5))
	e.Value(types.Null)
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		for i := 0; i < 64 && d.Len() > 0; i++ {
			var err error
			switch i % 7 {
			case 0:
				_, err = d.U64()
			case 1:
				_, err = d.Str()
			case 2:
				_, err = d.I64()
			case 3:
				_, err = d.Bool()
			case 4:
				_, err = d.U64s()
			case 5:
				_, err = d.U32s()
			case 6:
				_, err = d.Value()
			}
			if err != nil {
				return
			}
		}
	})
}
