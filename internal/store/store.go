// Package store is the content-addressed chunk store behind `llm265 pack`
// and `llm265 fetch` (DESIGN.md §15): compressed checkpoints split into
// codec chunks, each blob keyed by the SHA-256 of its bytes, deduplicated
// across checkpoints, with one JSON manifest per model naming the blobs that
// reassemble each tensor stack byte-identically.
//
// Layout under the store root:
//
//	chunks/<hh>/<sha256-hex>   blob files, fanned out by the first hash byte
//	manifests/<model>.json     per-model manifest
//
// Why chunk granularity: the codec's chunks are independent substreams with
// stable boundaries (a pure function of plane geometry and tool set), so two
// checkpoints sharing unchanged layers produce bit-identical chunk blobs and
// the store keeps one copy — the ZipServ-style dedup that makes multi-model
// serving affordable. The container's chunk table (codec.Layout) is what
// lets Pack split a container without decoding it, and lets a fetched model
// serve single layers through an LRU of decoded tensors (see Model).
//
// Integrity: a blob's name is its hash, re-verified on every read, so
// bit-rot surfaces as ErrChecksum; reassembly is byte-exact, so the codec's
// own CRCs re-verify end to end on decode.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
)

// ErrNotFound reports a missing model or blob.
var ErrNotFound = errors.New("store: not found")

// BlobRef names one content-addressed blob.
type BlobRef struct {
	Hash   string `json:"hash"` // SHA-256 of the blob bytes, lowercase hex
	Length int    `json:"length"`
}

// TensorMeta mirrors core.Encoded's metadata so Fetch can rebuild the exact
// Encoded without any side channel.
type TensorMeta struct {
	Layers    int       `json:"layers"`
	Rows      int       `json:"rows"`
	Cols      int       `json:"cols"`
	PerRow    bool      `json:"per_row,omitempty"`
	MaxFrameW int       `json:"max_frame_w"`
	MaxFrameH int       `json:"max_frame_h"`
	QP        int       `json:"qp"`
	Scales    []float32 `json:"scales"`
	Zeros     []float32 `json:"zeros"`
}

// TensorManifest describes one packed tensor stack: its metadata, and the
// header and chunk blobs that concatenate back into its container.
// Manifests written by earlier builds also carry each chunk's crc32c,
// plane_base and plane_count, and a "trailer" blob; nothing reads them, so
// decoding drops them.
type TensorManifest struct {
	Name string `json:"name"`
	// Params optionally names the model parameter stored at each layer
	// (layer i holds Params[i]), for stores packed from nn checkpoints.
	Params []string   `json:"params,omitempty"`
	Meta   TensorMeta `json:"meta"`
	Header BlobRef    `json:"header"`
	Chunks []BlobRef  `json:"chunks"`
}

// Manifest is one model's packed inventory.
type Manifest struct {
	Model   string           `json:"model"`
	Tensors []TensorManifest `json:"tensors"`
}

// PackedBytes sums the container bytes of every tensor (before dedup).
func (m *Manifest) PackedBytes() int64 {
	var n int64
	for _, tm := range m.Tensors {
		n += int64(tm.Header.Length)
		for _, c := range tm.Chunks {
			n += int64(c.Length)
		}
	}
	return n
}

// storeMetrics holds the store.* handles, resolved once in Open; a nil
// registry resolves every one to nil, and a nil handle records nothing.
type storeMetrics struct {
	packBlobs, packBlobsNew *obs.Counter
	packBytes, packBytesNew *obs.Counter
	fetchBlobs, fetchBytes  *obs.Counter
	hits, misses, evictions *obs.Counter
	residentBytes           *obs.Gauge
}

func newStoreMetrics(reg *obs.Registry) storeMetrics {
	return storeMetrics{
		packBlobs:     reg.Counter("store.pack.blobs"),
		packBlobsNew:  reg.Counter("store.pack.blobs_new"),
		packBytes:     reg.Counter("store.pack.bytes"),
		packBytesNew:  reg.Counter("store.pack.bytes_new"),
		fetchBlobs:    reg.Counter("store.fetch.blobs"),
		fetchBytes:    reg.Counter("store.fetch.bytes"),
		hits:          reg.Counter("store.lru.hits"),
		misses:        reg.Counter("store.lru.misses"),
		evictions:     reg.Counter("store.lru.evictions"),
		residentBytes: reg.Gauge("store.lru.resident_bytes"),
	}
}

// Store is a content-addressed chunk store rooted at a directory.
type Store struct {
	root string
	m    storeMetrics
}

// Open opens (creating if needed) a store rooted at dir. Metrics are
// recorded into reg (nil = none) under the store.* names.
func Open(dir string, reg *obs.Registry) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty root")
	}
	for _, sub := range []string{"chunks", "manifests"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{root: dir, m: newStoreMetrics(reg)}, nil
}

// checkName rejects model/tensor names that would escape the store
// directories or collide with path syntax.
func checkName(kind, name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("store: invalid %s name %q", kind, name)
	}
	return nil
}

func (s *Store) blobPath(hash string) string {
	return filepath.Join(s.root, "chunks", hash[:2], hash)
}

// putBlob writes data under its content hash, returning the ref. An existing
// blob is the dedup hit: nothing is written (the name proves the content).
func (s *Store) putBlob(data []byte) (BlobRef, error) {
	sum := sha256.Sum256(data)
	hash := hex.EncodeToString(sum[:])
	ref := BlobRef{Hash: hash, Length: len(data)}
	s.m.packBlobs.Inc()
	s.m.packBytes.Add(int64(len(data)))
	path := s.blobPath(hash)
	if _, err := os.Stat(path); err == nil {
		return ref, nil // dedup: content already stored
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return BlobRef{}, fmt.Errorf("store: %w", err)
	}
	// The content address makes double-writes idempotent.
	if err := writeAtomic(path, data); err != nil {
		return BlobRef{}, err
	}
	s.m.packBlobsNew.Inc()
	s.m.packBytesNew.Add(int64(len(data)))
	return ref, nil
}

// writeAtomic writes data to path through a temp file of its own in path's
// directory and a rename, so a reader never sees a partial file and
// concurrent writers of one path never touch each other's temp file: the
// last rename wins whole.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644) // CreateTemp's 0600 would hide the store from its other readers
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// isHash reports whether h is a SHA-256 in lowercase hex, the only name a
// blob has. A manifest naming anything else is corrupt, and its name never
// reaches the file system as a path.
func isHash(h string) bool {
	if len(h) != 2*sha256.Size {
		return false
	}
	for _, c := range []byte(h) {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// getBlob reads a blob and re-verifies its content hash, so on-disk bit-rot
// is ErrChecksum, not silent corruption.
func (s *Store) getBlob(ref BlobRef) ([]byte, error) {
	if !isHash(ref.Hash) {
		return nil, fmt.Errorf("store: malformed blob hash %q: %w", ref.Hash, codec.ErrCorrupt)
	}
	data, err := os.ReadFile(s.blobPath(ref.Hash))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("store: blob %s: %w", ref.Hash[:12], ErrNotFound)
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != ref.Hash || len(data) != ref.Length {
		return nil, fmt.Errorf("store: blob %s content mismatch: %w", ref.Hash[:12], codec.ErrChecksum)
	}
	s.m.fetchBlobs.Inc()
	s.m.fetchBytes.Add(int64(len(data)))
	return data, nil
}

// PackEntry is one tensor stack to pack: a name unique within the model, the
// optional per-layer parameter names, and the encode itself.
type PackEntry struct {
	Name   string
	Params []string
	Enc    *core.Encoded
}

// Pack splits each entry's container into content-addressed blobs and writes
// the model's manifest. Chunks identical across models (or across entries)
// are stored once — the manifest records hashes, not copies. Packing the
// same model name again overwrites its manifest (blobs are never deleted).
func (s *Store) Pack(model string, entries []PackEntry) (*Manifest, error) {
	if err := checkName("model", model); err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, errors.New("store: nothing to pack")
	}
	man := &Manifest{Model: model}
	seen := map[string]bool{}
	for _, ent := range entries {
		if err := checkName("tensor", ent.Name); err != nil {
			return nil, err
		}
		if seen[ent.Name] {
			return nil, fmt.Errorf("store: duplicate tensor name %q", ent.Name)
		}
		seen[ent.Name] = true
		e := ent.Enc
		if ent.Params != nil && len(ent.Params) != e.Layers {
			return nil, fmt.Errorf("store: %d param names for %d layers of %q", len(ent.Params), e.Layers, ent.Name)
		}
		lay, err := codec.Layout(e.Stream)
		if err != nil {
			return nil, fmt.Errorf("store: tensor %q: %w", ent.Name, err)
		}
		tm := TensorManifest{
			Name:   ent.Name,
			Params: ent.Params,
			Meta: TensorMeta{
				Layers: e.Layers, Rows: e.Rows, Cols: e.Cols,
				PerRow:    e.PerRow,
				MaxFrameW: e.MaxFrameW, MaxFrameH: e.MaxFrameH,
				QP:     e.QP,
				Scales: e.Scales, Zeros: e.Zeros,
			},
		}
		if tm.Header, err = s.putBlob(e.Stream[:lay.HeaderLen]); err != nil {
			return nil, err
		}
		for _, ce := range lay.Entries {
			ref, err := s.putBlob(e.Stream[ce.Offset : ce.Offset+int64(ce.Length)])
			if err != nil {
				return nil, err
			}
			tm.Chunks = append(tm.Chunks, ref)
		}
		man.Tensors = append(man.Tensors, tm)
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := writeAtomic(filepath.Join(s.root, "manifests", model+".json"), append(data, '\n')); err != nil {
		return nil, err
	}
	return man, nil
}

// Manifest loads a model's manifest.
func (s *Store) Manifest(model string) (*Manifest, error) {
	if err := checkName("model", model); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(s.root, "manifests", model+".json"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("store: model %q: %w", model, ErrNotFound)
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	man := &Manifest{}
	if err := json.Unmarshal(data, man); err != nil {
		return nil, fmt.Errorf("store: manifest %q: %v: %w", model, err, codec.ErrCorrupt)
	}
	return man, nil
}

// fetchTensor reassembles one tensor's container from its blobs,
// byte-identical to what Pack was handed. The stream is sized from the blobs
// read, never from the manifest's unverified lengths.
func (s *Store) fetchTensor(tm *TensorManifest) (*core.Encoded, error) {
	refs := append([]BlobRef{tm.Header}, tm.Chunks...)
	blobs := make([][]byte, len(refs))
	for i, ref := range refs {
		var err error
		if blobs[i], err = s.getBlob(ref); err != nil {
			return nil, err
		}
	}
	stream := bytes.Join(blobs, nil)
	e := &core.Encoded{
		Layers: tm.Meta.Layers, Rows: tm.Meta.Rows, Cols: tm.Meta.Cols,
		PerRow:    tm.Meta.PerRow,
		MaxFrameW: tm.Meta.MaxFrameW, MaxFrameH: tm.Meta.MaxFrameH,
		QP:     tm.Meta.QP,
		Scales: tm.Meta.Scales, Zeros: tm.Meta.Zeros,
		Stream: stream,
	}
	// The reassembled container must still parse strictly — a manifest
	// stitching mismatched blobs (wrong order, wrong model) fails here with
	// a typed error rather than surviving to decode time.
	if _, err := codec.Layout(stream); err != nil {
		return nil, fmt.Errorf("store: tensor %q reassembly: %w", tm.Name, err)
	}
	return e, nil
}

// Fetch reassembles every tensor of a model, keyed by tensor name. Each
// stream is byte-identical to the one packed.
func (s *Store) Fetch(model string) (map[string]*core.Encoded, error) {
	man, err := s.Manifest(model)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*core.Encoded, len(man.Tensors))
	for i := range man.Tensors {
		tm := &man.Tensors[i]
		e, err := s.fetchTensor(tm)
		if err != nil {
			return nil, err
		}
		out[tm.Name] = e
	}
	return out, nil
}

// Stats reports physical store occupancy: unique blobs and their byte total.
// A file not named by its hash — a writeAtomic temp file an interrupted or a
// concurrent write leaves — is no blob.
func (s *Store) Stats() (blobs int, bytes int64, err error) {
	root := filepath.Join(s.root, "chunks")
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !isHash(d.Name()) {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		blobs++
		bytes += info.Size()
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	return blobs, bytes, nil
}
