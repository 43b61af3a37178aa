package atlas

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"repro/internal/model"
	"repro/internal/partition"
)

// Snapshot format, version 1 (all integers little-endian):
//
//	header (64 bytes)
//	  [ 0: 8)  magic "HPATLAS\x01"
//	  [ 8:12)  format version (uint32, = 1)
//	  [12:13)  algorithm (uint8, model.Algorithm)
//	  [13:14)  topology  (uint8, 0 fully-connected, 1 star)
//	  [14:16)  reserved (zero)
//	  [16:20)  n         (uint32)
//	  [20:24)  scale     (uint32, cells per unit ratio)
//	  [24:28)  prCells   (uint32)
//	  [28:32)  rrCells   (uint32)
//	  [32:36)  record stride (uint32, = 32)
//	  [36:40)  record count  (uint32, = prCells·rrCells)
//	  [40:44)  payload CRC32 (IEEE, over all record bytes)
//	  [44:48)  header  CRC32 (IEEE, over bytes [0:44))
//	  [48:64)  reserved (zero)
//	records (count × stride bytes, row-major by (pi, ri))
//	  [ 0: 1)  shape (uint8)
//	  [ 1: 2)  flags (bit 0: cell valid/computed, bit 1: feasible)
//	  [ 2: 8)  reserved (zero)
//	  [ 8:16)  VoC (int64)
//	  [16:24)  winner modelled total seconds (float64 bits)
//	  [24:32)  winner modelled comm  seconds (float64 bits)
//
// The fixed stride keeps the lookup a pure index computation; the two
// checksums make a torn or bit-rotted snapshot fail loudly at load time
// instead of quietly serving wrong plans.
const (
	snapshotMagic   = "HPATLAS\x01"
	snapshotVersion = 1
	headerSize      = 64
	recordStride    = 32

	flagValid    = 1
	flagFeasible = 2
)

// snapshotTopologies lists the topologies a snapshot can hold, indexed by
// the header's topology byte.
var snapshotTopologies = [...]model.TopologySpec{model.FullyConnected, model.Star}

// topologyByte returns t's header byte; ok is false for a link spec.
func topologyByte(t model.TopologySpec) (b byte, ok bool) {
	for i, s := range snapshotTopologies {
		if s == t {
			return byte(i), true
		}
	}
	return 0, false
}

// Encode serialises the atlas to its snapshot bytes.
func (a *Atlas) Encode() []byte {
	buf := make([]byte, headerSize+len(a.recs)*recordStride)
	payload := buf[headerSize:]
	for i, rec := range a.recs {
		off := i * recordStride
		payload[off] = byte(rec.Shape)
		var flags byte
		if a.valid[i] {
			flags |= flagValid
		}
		if rec.Feasible {
			flags |= flagFeasible
		}
		payload[off+1] = flags
		binary.LittleEndian.PutUint64(payload[off+8:], uint64(rec.VoC))
		binary.LittleEndian.PutUint64(payload[off+16:], math.Float64bits(rec.Total))
		binary.LittleEndian.PutUint64(payload[off+24:], math.Float64bits(rec.Comm))
	}
	copy(buf[0:8], snapshotMagic)
	binary.LittleEndian.PutUint32(buf[8:], snapshotVersion)
	buf[12] = byte(a.alg)
	buf[13], _ = topologyByte(a.topo) // Build admits legacy topologies only
	binary.LittleEndian.PutUint32(buf[16:], uint32(a.n))
	binary.LittleEndian.PutUint32(buf[20:], uint32(a.grid.Scale))
	binary.LittleEndian.PutUint32(buf[24:], uint32(a.grid.PrCells))
	binary.LittleEndian.PutUint32(buf[28:], uint32(a.grid.RrCells))
	binary.LittleEndian.PutUint32(buf[32:], recordStride)
	binary.LittleEndian.PutUint32(buf[36:], uint32(len(a.recs)))
	binary.LittleEndian.PutUint32(buf[40:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(buf[44:], crc32.ChecksumIEEE(buf[0:44]))
	return buf
}

// PayloadCRC returns the snapshot's record checksum (for dump tooling).
func (a *Atlas) PayloadCRC() uint32 {
	return crc32.ChecksumIEEE(a.Encode()[headerSize:])
}

// Decode parses and verifies snapshot bytes.
func Decode(data []byte) (*Atlas, error) {
	if len(data) < headerSize || string(data[0:8]) != snapshotMagic {
		return nil, fmt.Errorf("atlas: not an atlas snapshot (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != snapshotVersion {
		return nil, fmt.Errorf("atlas: snapshot version %d, this build reads %d", v, snapshotVersion)
	}
	if got, want := crc32.ChecksumIEEE(data[0:44]), binary.LittleEndian.Uint32(data[44:]); got != want {
		return nil, fmt.Errorf("atlas: header checksum mismatch (want %08x, got %08x)", want, got)
	}
	if int(data[12]) >= model.NumAlgorithms {
		return nil, fmt.Errorf("atlas: header names unknown algorithm %d", data[12])
	}
	if int(data[13]) >= len(snapshotTopologies) {
		return nil, fmt.Errorf("atlas: header names unknown topology %d", data[13])
	}
	a := &Atlas{
		alg:  model.Algorithm(data[12]),
		topo: snapshotTopologies[data[13]],
		n:    int(binary.LittleEndian.Uint32(data[16:])),
	}
	a.grid = Grid{
		Scale:   int(binary.LittleEndian.Uint32(data[20:])),
		PrCells: int(binary.LittleEndian.Uint32(data[24:])),
		RrCells: int(binary.LittleEndian.Uint32(data[28:])),
	}
	stride := binary.LittleEndian.Uint32(data[32:])
	count := int(binary.LittleEndian.Uint32(data[36:]))
	if stride != recordStride {
		return nil, fmt.Errorf("atlas: record stride %d, this build reads %d", stride, recordStride)
	}
	if a.grid.Scale < 1 || a.grid.PrCells < 1 || a.grid.RrCells < 1 || count != a.grid.Cells() {
		return nil, fmt.Errorf("atlas: header grid %dx%d (scale %d) disagrees with record count %d",
			a.grid.PrCells, a.grid.RrCells, a.grid.Scale, count)
	}
	if a.n < 4 {
		return nil, fmt.Errorf("atlas: header n=%d out of range", a.n)
	}
	payload := data[headerSize:]
	if len(payload) != count*recordStride {
		return nil, fmt.Errorf("atlas: snapshot truncated: %d payload bytes, want %d", len(payload), count*recordStride)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(data[40:]); got != want {
		return nil, fmt.Errorf("atlas: payload checksum mismatch (want %08x, got %08x)", want, got)
	}
	a.recs = make([]Record, count)
	a.valid = make([]bool, count)
	for i := range a.recs {
		off := i * recordStride
		flags := payload[off+1]
		a.valid[i] = flags&flagValid != 0
		a.recs[i] = Record{
			Shape:    partition.Shape(payload[off]),
			Feasible: flags&flagFeasible != 0,
			VoC:      int64(binary.LittleEndian.Uint64(payload[off+8:])),
			Total:    math.Float64frombits(binary.LittleEndian.Uint64(payload[off+16:])),
			Comm:     math.Float64frombits(binary.LittleEndian.Uint64(payload[off+24:])),
		}
		if a.valid[i] && a.recs[i].Feasible && int(payload[off]) >= partition.NumShapes {
			return nil, fmt.Errorf("atlas: record %d carries unknown shape %d", i, payload[off])
		}
	}
	return a, nil
}

// Write atomically persists the snapshot: built in a sibling tempfile and
// renamed over path, so a crash mid-write leaves either the old snapshot
// or the new one, never a torn file.
func (a *Atlas) Write(path string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, a.Encode(), 0o644); err != nil {
		return fmt.Errorf("atlas: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("atlas: rename snapshot: %w", err)
	}
	return nil
}

// Load reads and verifies a snapshot file.
func Load(path string) (*Atlas, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("atlas: %s: %w", path, err)
	}
	return a, nil
}
