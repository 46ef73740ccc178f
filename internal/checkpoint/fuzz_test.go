package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzCheckpointDecode throws arbitrary bytes at the decoder. The
// properties under test:
//
//   - Decode never panics: every invalid input maps to one of the
//     package's typed errors, and an image of any other format version
//     to ErrBadVersion;
//   - Decode never over-allocates: allocation sizes are derived from the
//     actual input length, never from an attacker-controlled count alone
//     (a violation shows up as the fuzz engine OOMing on a small input);
//   - the format is canonical: any input that decodes successfully must
//     re-encode to the identical bytes, so there are no two encodings of
//     one state and no decoder-accepted garbage that EncodeDelta couldn't
//     have produced.
//
// The committed corpus (testdata/fuzz/FuzzCheckpointDecode) holds the
// same shapes as the seeds below, plus a bad magic and images of the
// retired formats: seed-v1-full (version 1), and seed-v2-full and
// seed-v2-delta, a root and a link of version 2 (24-byte face records).
func FuzzCheckpointDecode(f *testing.F) {
	// Root seeds: a valid image, a truncation, the first frame header
	// alone, a bit flip, and the bare preamble shapes.
	st, _ := midState(f, 3, 200, 2)
	img := Encode(st, Meta{Seed: 3, Build: 1})
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add(img[:17])
	flip := append([]byte(nil), img...)
	flip[len(flip)/3] ^= 0x10
	f.Add(flip)
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(preamble())

	// Link seeds: a valid link, a truncation, a link whose chain binding
	// names a base generation that will never exist (decodes fine —
	// resolution is Restore's job), and a CRC-valid forgery whose
	// recorded watermark disagrees with its own suffix (every suffix
	// final id falls below the forged watermark, so Decode must reject it
	// as ErrInvalidState, not crash on it).
	run := newLiveRun(f, 3, 200)
	run.step(f, 1)
	base := run.lv.CaptureState()
	run.step(f, 2)
	d, err := run.lv.CaptureState().DeltaSince(base.Watermark())
	if err != nil {
		f.Fatalf("DeltaSince: %v", err)
	}
	if len(d.Final) == 0 {
		f.Fatal("link seed has no final ids; the forged-watermark seed would not be forged")
	}
	meta := Meta{Seed: 3, Build: 1}
	ch := Chain{BaseGen: 1, CRCTris: crcTris(0, base.Tris), CRCFinal: crcFinal(0, base.Final)}
	dimg := EncodeDelta(d, meta, ch)
	f.Add(dimg)
	f.Add(dimg[:len(dimg)*2/3])
	f.Add(EncodeDelta(d, meta, Chain{BaseGen: 999, CRCTris: ch.CRCTris, CRCFinal: ch.CRCFinal}))
	forged := *d
	forged.Base.Tris += len(forged.Tris)
	f.Add(EncodeDelta(&forged, meta, ch))

	typed := []error{ErrBadMagic, ErrBadVersion, ErrTruncated, ErrFrameCRC, ErrFrameOrder, ErrFrameSize, ErrInvalidState}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, meta, ch, err := Decode(data)
		if len(data) >= 16 && string(data[:8]) == magic && binary.LittleEndian.Uint32(data[8:12]) != version &&
			!errors.Is(err, ErrBadVersion) {
			t.Fatalf("version %d image: err %v, want ErrBadVersion", binary.LittleEndian.Uint32(data[8:12]), err)
		}
		if err != nil {
			for _, want := range typed {
				if errors.Is(err, want) {
					return
				}
			}
			t.Fatalf("untyped decode error: %v", err)
		}
		if reenc := EncodeDelta(st, meta, ch); !bytes.Equal(reenc, data) {
			t.Fatalf("non-canonical: %d input bytes decode but re-encode to %d different bytes",
				len(data), len(reenc))
		}
	})
}
