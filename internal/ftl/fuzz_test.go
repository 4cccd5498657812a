package ftl

import (
	"bytes"
	"testing"
)

// The decoders below read bytes recovery did not just write — a spare
// area or a meta payload that survived (or half-survived) a power cut.
// Whatever they are handed they must not panic, and whatever they accept
// must re-encode to the bytes it was decoded from.

func FuzzDecodeOOB(f *testing.F) {
	for _, r := range []oobRec{
		{kind: oobKindData, state: dataStateBase, seq: 1, a: 42},
		{kind: oobKindData, state: dataStateTx, seq: 99, a: 7, b: 12345 | 99<<32},
		{kind: oobKindMeta, state: metaStateChain, seq: 8, a: 5 | 2<<16 | 4<<32, b: 1},
	} {
		enc := encodeOOB(r)
		f.Add(enc[:])
	}
	f.Add(make([]byte, oobRecSize))
	f.Add([]byte{0xB1, 0x0F})
	f.Fuzz(func(t *testing.T, buf []byte) {
		rec, ok := decodeOOB(buf)
		if !ok {
			return
		}
		if enc := encodeOOB(rec); !bytes.Equal(enc[:], buf[:oobRecSize]) {
			t.Fatalf("accepted % x, which re-encodes to % x", buf[:oobRecSize], enc)
		}
	})
}

func FuzzDecodeTidRanges(f *testing.F) {
	f.Add(encodeTidRanges(nil))
	f.Add(encodeTidRanges([]tidRange{{1, 1}}))
	f.Add(encodeTidRanges([]tidRange{{1, 9}, {12, 12}, {1 << 40, 1<<40 + 3}}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, buf []byte) {
		rs, err := decodeTidRanges(buf)
		if err != nil {
			return
		}
		if enc := encodeTidRanges(rs); !bytes.Equal(enc, buf[:len(enc)]) {
			t.Fatalf("accepted % x, which re-encodes to % x", buf, enc)
		}
	})
}
