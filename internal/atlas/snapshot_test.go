package atlas

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	a := testAtlas(t, 2, 4, 3, 40)
	data := a.Encode()
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if back.alg != a.alg || back.topo != a.topo || back.n != a.n || back.grid != a.grid {
		t.Fatalf("header round-trip: got (%v, %v, n=%d, %+v)", back.alg, back.topo, back.n, back.grid)
	}
	if !reflect.DeepEqual(back.recs, a.recs) || !reflect.DeepEqual(back.valid, a.valid) {
		t.Fatal("records changed across encode/decode")
	}
}

func TestSnapshotWriteLoad(t *testing.T) {
	a := testAtlas(t, 2, 4, 3, 40)
	path := filepath.Join(t.TempDir(), "test.atlas")
	if err := a.Write(path); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("tempfile left behind after Write")
	}
	back, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(back.recs, a.recs) {
		t.Fatal("records changed across write/load")
	}
}

// reEncode recomputes both checksums after a deliberate header edit so the
// test exercises the named validation, not just the CRC.
func reEncode(data []byte) {
	binary.LittleEndian.PutUint32(data[40:], crc32.ChecksumIEEE(data[headerSize:]))
	binary.LittleEndian.PutUint32(data[44:], crc32.ChecksumIEEE(data[0:44]))
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	a := testAtlas(t, 2, 4, 3, 40)
	pristine := a.Encode()

	cases := []struct {
		name    string
		mutate  func(data []byte) []byte
		wantSub string
	}{
		{"bad magic", func(d []byte) []byte { d[0] = 'X'; return d }, "magic"},
		{"short file", func(d []byte) []byte { return d[:headerSize-1] }, "magic"},
		{"future version", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:], 99)
			reEncode(d)
			return d
		}, "version"},
		{"flipped header bit", func(d []byte) []byte { d[16] ^= 1; return d }, "header checksum"},
		{"flipped payload bit", func(d []byte) []byte { d[headerSize+5] ^= 1; return d }, "payload checksum"},
		{"truncated payload", func(d []byte) []byte { return d[:len(d)-recordStride] }, "truncated"},
		{"alien stride", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[32:], 64)
			reEncode(d)
			return d
		}, "stride"},
		{"count disagrees with grid", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[36:], 1)
			reEncode(d)
			return d
		}, "disagrees"},
		{"n out of range", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[16:], 2)
			reEncode(d)
			return d
		}, "out of range"},
		{"unknown algorithm byte", func(d []byte) []byte {
			d[12] = 9
			reEncode(d)
			return d
		}, "unknown algorithm"},
		{"unknown topology byte", func(d []byte) []byte {
			d[13] = 7
			reEncode(d)
			return d
		}, "unknown topology"},
		{"unknown shape byte", func(d []byte) []byte {
			// Find a feasible record and poison its shape.
			for off := headerSize; off < len(d); off += recordStride {
				if d[off+1]&flagFeasible != 0 {
					d[off] = 200
					break
				}
			}
			reEncode(d)
			return d
		}, "unknown shape"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := append([]byte(nil), pristine...)
			data = tc.mutate(data)
			_, err := Decode(data)
			if err == nil {
				t.Fatal("Decode accepted corrupted snapshot")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}

	// The pristine copy must still decode — proves the mutations above were
	// what tripped the checks.
	if _, err := Decode(pristine); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.atlas")); err == nil {
		t.Fatal("Load invented an atlas from a missing file")
	}
}
