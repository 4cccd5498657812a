package core

import (
	"bytes"
	"testing"

	"repro/internal/nand"
)

// FuzzDecodeImage feeds decodeImage the X-L2P payload recovery reads
// back from flash: it must never panic, and every whole row it returns
// must re-encode to the bytes it came from.
func FuzzDecodeImage(f *testing.F) {
	f.Add(appendImage(nil, nil))
	f.Add(appendImage(nil, []imageEntry{
		{tid: 7, lpn: 42, ppn: 1000, status: StatusCommitted},
		{tid: 1 << 40, lpn: 0x3FFFFFFF, ppn: nand.PPN(0xFFFFFFFF), status: StatusPrepared},
	}))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, payload []byte) {
		img := decodeImage(payload)
		whole := len(payload) - len(payload)%EntrySize
		if enc := appendImage(nil, img); !bytes.Equal(enc, payload[:whole]) {
			t.Fatalf("decoded % x, which re-encodes to % x", payload[:whole], enc)
		}
	})
}
