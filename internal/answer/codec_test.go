package answer

// Round-trip parity for the binary snapshot: a store reloaded through
// AppendBinary/LoadBinary must be observationally identical to the
// original (TopK, TopKBatch, SubspaceSkyline, Dominates), and the
// encoding itself must be deterministic — reload and re-encode yields
// the same bytes. Corruption anywhere in the block must be rejected
// with ErrBadBinary, never a panic or a silently wrong store.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
)

// TestBinaryRoundTripParity reuses the randomized parity harness: every
// answer the reloaded store gives must equal the original's, and the
// reloaded store must re-encode to the identical byte block.
func TestBinaryRoundTripParity(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		s := parityStore(rng)
		data := s.AppendBinary(nil)
		if again := s.AppendBinary(nil); !bytes.Equal(data, again) {
			t.Fatal("AppendBinary is not deterministic")
		}
		r, err := LoadBinary(data)
		if err != nil {
			t.Fatalf("LoadBinary: %v", err)
		}
		if !bytes.Equal(data, r.AppendBinary(nil)) {
			t.Fatal("reloaded store re-encodes to different bytes")
		}
		if s.Stats() != r.Stats() {
			t.Fatalf("stats diverge: %+v vs %+v", s.Stats(), r.Stats())
		}
		for rep := 0; rep < 20; rep++ {
			q := parityQuery(rng, s)
			got, gotErr := r.TopK(q)
			want, wantErr := s.TopK(q)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("error parity broken after reload: %v vs %v (q=%+v)", gotErr, wantErr, q)
			}
			if gotErr != nil {
				continue
			}
			if got.Exact != want.Exact || !reflect.DeepEqual(got.Items, want.Items) {
				t.Fatalf("TopK diverges after reload for q=%+v:\nreloaded: %v\noriginal: %v", q, got.Items, want.Items)
			}
		}
		checkBatchParity(t, r, batchQueries(rng, r, 8))
		for _, attrs := range [][]int{nil, {0}, {0, 1}} {
			got, gotErr := r.SubspaceSkyline(attrs)
			want, wantErr := s.SubspaceSkyline(attrs)
			if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("SubspaceSkyline(%v) diverges after reload", attrs)
			}
		}
		for rep := 0; rep < 10; rep++ {
			probe := make([]int, s.NumAttrs())
			for a := range probe {
				probe[a] = rng.Intn(80)
			}
			gotOK, gotW, _ := r.Dominates(probe)
			wantOK, wantW, _ := s.Dominates(probe)
			if gotOK != wantOK || !reflect.DeepEqual(gotW, wantW) {
				t.Fatalf("Dominates(%v) diverges after reload", probe)
			}
		}
	}
}

// TestLoadBinaryRejectsCorruption flips, truncates, and doctors the
// block; every mutation must return ErrBadBinary.
func TestLoadBinaryRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	s, err := Build(genData(rng, 200, 3, 40), Options{BandK: 4})
	if err != nil {
		t.Fatal(err)
	}
	data := s.AppendBinary(nil)
	if _, err := LoadBinary(data); err != nil {
		t.Fatalf("pristine block rejected: %v", err)
	}
	reject := func(name string, b []byte) {
		t.Helper()
		if _, err := LoadBinary(b); !errors.Is(err, ErrBadBinary) {
			t.Fatalf("%s: want ErrBadBinary, got %v", name, err)
		}
	}
	reject("empty", nil)
	reject("truncated header", data[:10])
	reject("truncated payload", data[:len(data)/2])
	reject("trailing garbage", append(append([]byte(nil), data...), 0xAA))

	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	reject("bad magic", bad)

	bad = append([]byte(nil), data...)
	bad[8]++ // version
	reject("future version", bad)

	// Flip one byte at a spread of payload offsets: the checksum must
	// catch every one.
	for i := 16; i < len(data); i += 1 + len(data)/37 {
		bad = append([]byte(nil), data...)
		bad[i] ^= 0x10
		reject("bit flip", bad)
	}

	// A consistent checksum over an inconsistent payload (doctored after
	// re-checksumming) must fail the structural checks, not panic.
	bad = append([]byte(nil), data...)
	// n field is the first u64 of the payload; double it.
	for i := 16; i < 24; i++ {
		bad[i] = 0
	}
	bad[16] = 0xFF
	rechecksum(bad)
	reject("doctored dimensions", bad)
}

// rechecksum recomputes the header CRC so structural validation — not
// the checksum — is what rejects the block.
func rechecksum(b []byte) {
	binary.LittleEndian.PutUint32(b[12:16], crc32.Checksum(b[binaryHeaderLen:], castagnoli))
}

// FuzzLoadBinary feeds LoadBinary arbitrary blocks. The harness
// recomputes the header CRC first, so mutations get past the checksum
// to the structural checks. LoadBinary must never panic; a block it
// accepts must re-encode to the identical bytes and answer TopK —
// unfiltered and filtered — without panicking. Seeds (small stores'
// blocks) are under testdata/fuzz.
func FuzzLoadBinary(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= binaryHeaderLen {
			data = append([]byte(nil), data...)
			rechecksum(data)
		}
		s, err := LoadBinary(data)
		if err != nil {
			if !errors.Is(err, ErrBadBinary) {
				t.Fatalf("error %v does not match ErrBadBinary", err)
			}
			return
		}
		if again := s.AppendBinary(nil); !bytes.Equal(again, data) {
			t.Fatal("accepted block re-encodes to different bytes")
		}
		w := make([]float64, s.NumAttrs())
		for a := range w {
			w[a] = float64(a + 1)
		}
		for _, q := range []TopKQuery{
			{Weights: w, K: 3},
			{Weights: w, K: 2, Normalized: true, Filter: []Range{{Attr: 0, Lo: -5, Hi: 50}}},
		} {
			s.TopK(q)
		}
	})
}
