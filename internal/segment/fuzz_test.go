package segment

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// buildSegImage assembles a structurally valid segment-file image
// (header block, aligned index, data regions) the way writeSegment lays
// one out, so the fuzzer starts from inputs that pass every checksum.
func buildSegImage(buckets [][]byte) []byte {
	n := len(buckets)
	indexBytes := alignUp(int64(n) * indexEntryBytes)
	index := make([]byte, indexBytes)
	var data bytes.Buffer
	base := int64(BlockSize) + indexBytes
	for i, b := range buckets {
		var e indexEntry
		if len(b) > 0 {
			e = indexEntry{
				offset:  uint64(base + int64(data.Len())),
				length:  uint64(len(b)),
				objects: uint32(len(b) / RecordBytes),
				crc:     crc32.Checksum(b, castagnoli),
			}
		}
		putIndexEntry(index[i*indexEntryBytes:], e)
		data.Write(b)
	}
	img := marshalHeader(header{
		version:     FormatVersion,
		firstBucket: 0,
		numBuckets:  uint32(n),
		objectBytes: RecordBytes,
		blockSize:   BlockSize,
		indexCRC:    crc32.Checksum(index, castagnoli),
	})
	img = append(img, index...)
	img = append(img, data.Bytes()...)
	return img
}

func fuzzBucketPayload(key, records int) []byte {
	b := make([]byte, records*RecordBytes)
	for i := range b {
		b[i] = byte(key + i)
	}
	return b
}

// FuzzSegmentHeader drives unmarshalHeader with arbitrary bytes: it
// must reject or decode, never panic, and an accepted header must
// survive an encode/decode roundtrip with identical fields.
func FuzzSegmentHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, headerBytes))
	f.Add(marshalHeader(header{
		version: FormatVersion, firstBucket: 3, numBuckets: 7,
		objectBytes: RecordBytes, blockSize: BlockSize, indexCRC: 0xdeadbeef,
	})[:headerBytes])
	corrupt := marshalHeader(header{version: FormatVersion, numBuckets: 1, objectBytes: RecordBytes, blockSize: BlockSize})
	corrupt[5] ^= 0xFF
	f.Add(corrupt[:headerBytes])
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := unmarshalHeader(b)
		if err != nil {
			return
		}
		h2, err := unmarshalHeader(marshalHeader(h))
		if err != nil {
			t.Fatalf("re-encoded header failed to decode: %v", err)
		}
		if h2 != h {
			t.Fatalf("header roundtrip changed fields: %+v -> %+v", h, h2)
		}
	})
}

// FuzzSegmentIndex feeds whole fuzzed file images to openSegFile. An
// accepted file must then serve every bucket read path without
// panicking or over-allocating: corrupt stores fail with errors, never
// crashes (the hardened bounds checks in openSegFile are what keep a
// forged numBuckets or index entry from driving a huge allocation).
func FuzzSegmentIndex(f *testing.F) {
	f.Add(buildSegImage(nil))
	f.Add(buildSegImage([][]byte{fuzzBucketPayload(1, 2), nil, fuzzBucketPayload(3, 1)}))
	torn := buildSegImage([][]byte{fuzzBucketPayload(5, 4)})
	f.Add(torn[:len(torn)-7]) // truncated data region
	flipped := buildSegImage([][]byte{fuzzBucketPayload(9, 2)})
	flipped[BlockSize+3] ^= 0x40 // index corruption
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, img []byte) {
		if len(img) > 1<<20 {
			return // bound disk churn per exec; structure fits well below this
		}
		path := filepath.Join(t.TempDir(), "seg-00000.lfseg")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		sf, err := openSegFile(path)
		if err != nil {
			return
		}
		defer sf.f.Close()
		if sf.hdr.firstBucket != 0 {
			return // a Set never pairs this file with bucket 0; nothing to drive
		}
		n := len(sf.entries)
		s := &Set{
			man:       manifest{NumBuckets: n, ObjectBytes: int64(sf.hdr.objectBytes)},
			segs:      []*segFile{sf},
			bucketSeg: make([]int, n),
		}
		for i := 0; i < n; i++ {
			raw, _, err := s.readRegion(i, nil)
			if err == nil {
				if sum := crc32.Checksum(raw, castagnoli); sum != sf.entries[i].crc {
					t.Fatalf("bucket %d served bytes whose checksum %#x differs from its index entry %#x", i, sum, sf.entries[i].crc)
				}
			}
			if _, _, err := s.ReadBucket(i); err != nil {
				continue
			}
			if _, err := s.ReadPages(i, 1); err != nil {
				t.Fatalf("bucket %d: scan succeeded but probe pread failed: %v", i, err)
			}
		}
		_, _ = s.ReadGroupRegion(0)
	})
}
