package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/journal"
	wire "repro/serve"
)

// planCache is the TTL result cache of the serving layer. Fresh entries
// short-circuit the whole plan path; expired entries are deliberately
// kept, because a stale searched answer is still a better degraded
// response than a bare canonical evaluation — the candidate shapes are
// scale-free in the ratio, so yesterday's search for the same scenario
// remains a principled fallback.
type planCache struct {
	mu      sync.Mutex
	entries map[string]cacheEntry
	ttl     time.Duration
	now     func() time.Time

	// jw, when set, is the live rotating journal: every put is appended
	// so a crash loses at most the torn tail of the active segment, and
	// size/age rotation bounds the on-disk footprint across long
	// calibration runs. A failed append disables journaling (jwErr keeps
	// the cause); the drain-time save still rewrites the cache in full.
	jw    *journal.RotatingWriter
	jwErr error
}

type cacheEntry struct {
	resp    wire.PlanResponse
	expires time.Time
}

func newPlanCache(ttl time.Duration) *planCache {
	return &planCache{
		entries: make(map[string]cacheEntry),
		ttl:     ttl,
		now:     time.Now,
	}
}

// get returns a copy of the cached response for key. fresh reports
// whether it is within TTL; ok whether any entry (stale included) exists.
func (c *planCache) get(key string) (resp wire.PlanResponse, fresh, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return wire.PlanResponse{}, false, false
	}
	return e.resp, c.now().Before(e.expires), true
}

// put stores a response under key, evicting the stalest entries when the
// soft size cap, cacheMax, is exceeded.
func (c *planCache) put(key string, resp wire.PlanResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := cacheEntry{resp: resp, expires: c.now().Add(c.ttl)}
	c.entries[key] = e
	if c.jw != nil {
		rec := cacheJournalRecord{Key: key, Expires: e.expires.UnixNano(), Response: resp}
		if err := c.jw.AppendPayload(rec); err != nil {
			c.jw.Close()
			c.jw, c.jwErr = nil, err
		}
	}
	if len(c.entries) > cacheMax {
		type aged struct {
			key     string
			expires time.Time
		}
		all := make([]aged, 0, len(c.entries))
		for k, e := range c.entries {
			all = append(all, aged{k, e.expires})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].expires.Before(all[j].expires) })
		for _, a := range all[:len(all)-cacheMax] {
			delete(c.entries, a.key)
		}
	}
}

// remove drops an entry (drift invalidation: the plan under this key
// was computed for a superseded scenario estimate).
func (c *planCache) remove(key string) {
	c.mu.Lock()
	delete(c.entries, key)
	c.mu.Unlock()
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// cacheJournalHeader identifies a plan-cache journal file.
type cacheJournalHeader struct {
	Kind    string `json:"kind"`
	Version int    `json:"version"`
}

// cacheJournalRecord is one persisted cache entry.
type cacheJournalRecord struct {
	Key string `json:"key"`
	// Expires is the entry's expiry as Unix nanoseconds.
	Expires  int64             `json:"expires"`
	Response wire.PlanResponse `json:"response"`
}

const cacheJournalKind = "plancache"

// journalTo attaches a live rotating journal at path: subsequent puts
// are appended incrementally. Call after load() — the journal is opened
// in append mode over whatever active segment survived the scrub.
func (c *planCache) journalTo(path string, rc journal.RotateConfig) error {
	rw, err := journal.OpenRotating(path, cacheJournalHeader{Kind: cacheJournalKind, Version: 1}, rc)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.jw != nil {
		c.jw.Close()
	}
	c.jw, c.jwErr = rw, nil
	c.mu.Unlock()
	return nil
}

// journalHealth reports the error that disabled live journaling, if any.
func (c *planCache) journalHealth() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jwErr
}

// save writes the cache to path as a CRC-framed journal, atomically: the
// journal is built in a sibling tempfile and renamed over path, so a
// crash mid-save leaves either the old cache or the new one. It returns
// the number of entries written.
func (c *planCache) save(path string) (int, error) {
	c.mu.Lock()
	if c.jw != nil {
		// The full rewrite below supersedes the incremental journal;
		// release the active segment so the rename can replace it.
		c.jw.Close()
		c.jw = nil
	}
	recs := make([]cacheJournalRecord, 0, len(c.entries))
	for k, e := range c.entries {
		recs = append(recs, cacheJournalRecord{Key: k, Expires: e.expires.UnixNano(), Response: e.resp})
	}
	c.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })

	tmp := path + ".tmp"
	os.Remove(tmp)
	w, err := journal.CreateRaw(tmp, cacheJournalHeader{Kind: cacheJournalKind, Version: 1})
	if err != nil {
		return 0, err
	}
	for _, r := range recs {
		if err := w.AppendPayload(r); err != nil {
			w.Close()
			os.Remove(tmp)
			return 0, err
		}
	}
	if err := w.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("serve: cache journal rename: %w", err)
	}
	// Compaction: the rewrite above holds every live entry, so any
	// rotated segments from incremental journaling are redundant history.
	if err := journal.RemoveSegments(path); err != nil {
		return len(recs), fmt.Errorf("serve: cache journal compact: %w", err)
	}
	return len(recs), nil
}

// load warms the cache from the journal chain at path — rotated segments
// oldest first, then the active segment — tolerating a torn tail on any
// segment (the journal layer repairs it). Records replay in append
// order, so the latest record for a key wins. Entries already expired
// are still loaded — they are the stale-serving inventory. A missing
// file is not an error; a journal of the wrong kind is.
func (c *planCache) load(path string) (int, error) {
	hdrRaw, recRaws, err := journal.RecoverRawAll(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var hdr cacheJournalHeader
	if err := json.Unmarshal(hdrRaw, &hdr); err != nil || hdr.Kind != cacheJournalKind {
		return 0, fmt.Errorf("serve: %s is not a plan-cache journal", path)
	}
	n := 0
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, raw := range recRaws {
		var rec cacheJournalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return n, fmt.Errorf("serve: cache journal record: %w", err)
		}
		if rec.Key == "" || rec.Response.Plan == nil {
			continue
		}
		if err := rec.Response.Plan.Validate(); err != nil {
			// A corrupt persisted plan must not be served; drop it.
			continue
		}
		c.entries[rec.Key] = cacheEntry{resp: rec.Response, expires: time.Unix(0, rec.Expires)}
		n++
	}
	return n, nil
}
