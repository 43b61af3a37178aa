package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ReplicaState is a replica's position in the ejection lifecycle.
type ReplicaState string

const (
	// ReplicaActive: in the load-balancing rotation.
	ReplicaActive ReplicaState = "active"
	// ReplicaEjected: out of rotation until the ejection cooldown ends.
	ReplicaEjected ReplicaState = "ejected"
	// ReplicaProbation: cooldown elapsed; trial traffic (a readiness
	// probe or one live request) decides between re-admittance and
	// re-ejection.
	ReplicaProbation ReplicaState = "probation"
)

// ReplicaStatus is an observability snapshot of one pool member.
type ReplicaStatus struct {
	URL                 string
	State               ReplicaState
	ConsecutiveFailures int
	// LatencyEWMAMs is the exponentially-weighted moving average of
	// successful-call latency (0 until the first success).
	LatencyEWMAMs float64
	InFlight      int64
	Ejections     int64
}

// ewmaAlpha weights the latest latency sample at 30%: new enough to
// track a replica that turns slow, smooth enough not to eject on one
// outlier sample.
const ewmaAlpha = 0.3

// replica is one pool member's live state.
type replica struct {
	url string

	inflight atomic.Int64

	mu           sync.Mutex
	failures     int // consecutive failures (live calls and probes)
	ewmaMs       float64
	ejected      bool
	ejectedUntil time.Time
	ejections    int64

	// Probe backoff: consecutive probe failures and the earliest time
	// the prober will try this replica again. A down replica is probed
	// at exponentially stretching, jittered intervals instead of every
	// tick — a dead host costs the prober (and the network) less and
	// less the longer it stays dead.
	probeFails int
	nextProbe  time.Time
}

func (r *replica) state(now time.Time) ReplicaState {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case !r.ejected:
		return ReplicaActive
	case now.After(r.ejectedUntil):
		return ReplicaProbation
	default:
		return ReplicaEjected
	}
}

// recordSuccess notes a successful live call: it clears the failure
// streak, re-admits a probation replica, and folds the latency sample
// into the EWMA.
func (r *replica) recordSuccess(latency time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failures = 0
	r.ejected = false
	ms := float64(latency) / float64(time.Millisecond)
	if r.ewmaMs == 0 {
		r.ewmaMs = ms
	} else {
		r.ewmaMs = ewmaAlpha*ms + (1-ewmaAlpha)*r.ewmaMs
	}
}

// recordFailure notes a failed live call or probe. At threshold
// consecutive failures the replica is ejected for cooldown; a failure
// during probation re-ejects immediately. It reports whether this call
// ejected the replica.
func (r *replica) recordFailure(now time.Time, threshold int, cooldown time.Duration) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failures++
	switch {
	case r.ejected && now.After(r.ejectedUntil):
		// Failed its probation trial: straight back out.
		r.ejectedUntil = now.Add(cooldown)
		r.ejections++
		return true
	case !r.ejected && r.failures >= threshold:
		r.ejected = true
		r.ejectedUntil = now.Add(cooldown)
		r.ejections++
		return true
	}
	return false
}

// readmit returns a probation replica to active duty (a successful
// readiness probe after the cooldown).
func (r *replica) readmit(now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ejected && now.After(r.ejectedUntil) {
		r.ejected = false
		r.failures = 0
	}
}

func (r *replica) status(now time.Time) ReplicaStatus {
	st := r.state(now)
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReplicaStatus{
		URL:                 r.url,
		State:               st,
		ConsecutiveFailures: r.failures,
		LatencyEWMAMs:       r.ewmaMs,
		InFlight:            r.inflight.Load(),
		Ejections:           r.ejections,
	}
}

// ---------------------------------------------------------------------
// replica selection

// pick chooses the replica for the next attempt. Preference order:
// active replicas the caller has not yet tried, then probation ones
// (their trial traffic), then already-tried active/probation replicas,
// then — when every replica is ejected and cooling — anything, because
// a guess beats refusing to try. Within a tier it is power-of-two-
// choices: two random candidates, lower in-flight count wins (latency
// EWMA breaks ties), which tracks sudden slowness far faster than
// round-robin without the herding of global-least-loaded.
func (c *Client) pick(tried map[*replica]bool) *replica {
	now := c.now()
	var fresh, freshProbation, burned []*replica
	for _, r := range c.replicas {
		st := r.state(now)
		if st == ReplicaEjected {
			continue
		}
		if tried[r] {
			// Deprioritised regardless of state: a retry or hedge wants
			// a replica that has not already been used by this call.
			burned = append(burned, r)
		} else if st == ReplicaActive {
			fresh = append(fresh, r)
		} else {
			freshProbation = append(freshProbation, r)
		}
	}
	switch {
	case len(fresh) > 0:
		return c.pickTwo(fresh)
	case len(freshProbation) > 0:
		return c.pickTwo(freshProbation)
	case len(burned) > 0:
		return c.pickTwo(burned)
	}
	// Everything is ejected and cooling: fall back to the full pool.
	return c.pickTwo(c.replicas)
}

// pickTwo is power-of-two-choices over a non-empty candidate slice.
func (c *Client) pickTwo(cands []*replica) *replica {
	if len(cands) == 1 {
		return cands[0]
	}
	i, j := c.twoIndices(len(cands))
	a, b := cands[i], cands[j]
	la, lb := a.inflight.Load(), b.inflight.Load()
	if la != lb {
		if la < lb {
			return a
		}
		return b
	}
	a.mu.Lock()
	ea := a.ewmaMs
	a.mu.Unlock()
	b.mu.Lock()
	eb := b.ewmaMs
	b.mu.Unlock()
	if eb < ea {
		return b
	}
	return a
}

// twoIndices draws two distinct random indices in [0, n).
func (c *Client) twoIndices(n int) (int, int) {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	i := c.rng.Intn(n)
	j := c.rng.Intn(n - 1)
	if j >= i {
		j++
	}
	return i, j
}

// ---------------------------------------------------------------------
// background readiness probing

// probeLoop polls every replica's /readyz on the configured interval
// until Close. Probing is what turns the pool from "retry around
// failures" into "route around them before they happen": a draining,
// breaker-open, or saturated replica fails its readiness probe and is
// ejected without a single live request paying for the discovery.
func (c *Client) probeLoop() {
	defer close(c.probeDone)
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.probeStop:
			return
		case <-ticker.C:
			c.probeAll()
		}
	}
}

// probeAll probes every due replica concurrently (a blackholed
// replica's probe must not delay the others') and waits for the round
// to finish. Replicas inside their probe-backoff window are skipped.
func (c *Client) probeAll() {
	now := c.now()
	var wg sync.WaitGroup
	for _, r := range c.replicas {
		r.mu.Lock()
		due := !now.Before(r.nextProbe)
		r.mu.Unlock()
		if !due {
			continue
		}
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			c.probeOne(r)
		}(r)
	}
	wg.Wait()
}

// probeOne checks one replica's readiness. /readyz is authoritative; a
// 404 falls back to /healthz so the pool still protects a pre-readiness
// server. Success re-admits a probation replica; failure feeds the same
// consecutive-failure ejection as live traffic. A probe success never
// clears live-call failures on an active replica: a replica can be
// "ready" and still corrupting or timing out live responses, and only
// live successes should vouch for those.
func (c *Client) probeOne(r *replica) {
	timeout := c.cfg.ProbeInterval
	if timeout > time.Second {
		timeout = time.Second
	}
	// Derived from probeCtx, not Background: Close cancels probeCtx, so
	// a probe blocked on an unresponsive replica unblocks immediately
	// instead of holding Close for the rest of its timeout.
	ctx, cancel := context.WithTimeout(c.probeCtx, timeout)
	defer cancel()
	status := c.probeStatus(ctx, r.url+"/readyz")
	ok := status/100 == 2
	if status == http.StatusNotFound {
		ok = c.probeURL(ctx, r.url+"/healthz")
	}
	if ok {
		r.readmit(c.now())
		r.mu.Lock()
		r.probeFails, r.nextProbe = 0, time.Time{}
		r.mu.Unlock()
		return
	}
	if r.recordFailure(c.now(), c.cfg.EjectThreshold, c.cfg.EjectCooldown) {
		c.ejections.Add(1)
	}
	c.backoffProbe(r)
}

// backoffProbe schedules a failed replica's next probe with jittered
// exponential backoff: delay doubles per consecutive probe failure,
// jittered uniformly over [0.5×, 1.5×] so many pools watching the same
// dead replica don't re-probe it in lockstep, capped at ProbeMaxBackoff.
func (c *Client) backoffProbe(r *replica) {
	r.mu.Lock()
	fails := r.probeFails
	r.probeFails++
	r.mu.Unlock()

	delay := c.cfg.ProbeInterval << uint(min(fails, 20))
	if delay <= 0 || delay > c.cfg.ProbeMaxBackoff {
		delay = c.cfg.ProbeMaxBackoff
	}
	c.rngMu.Lock()
	jittered := time.Duration((0.5 + c.rng.Float64()) * float64(delay))
	c.rngMu.Unlock()

	next := c.now().Add(jittered)
	r.mu.Lock()
	r.nextProbe = next
	r.mu.Unlock()
}

// probeURL reports whether a GET of url answers 2xx within ctx.
func (c *Client) probeURL(ctx context.Context, url string) bool {
	return c.probeStatus(ctx, url)/100 == 2
}

// probeStatus returns the status code of a GET of url, or 0 on
// transport failure.
func (c *Client) probeStatus(ctx context.Context, url string) int {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	return resp.StatusCode
}

// Replicas snapshots every pool member's state, most-recently-defined
// order preserved.
func (c *Client) Replicas() []ReplicaStatus {
	now := c.now()
	out := make([]ReplicaStatus, len(c.replicas))
	for i, r := range c.replicas {
		out[i] = r.status(now)
	}
	return out
}

// Ejections returns how many times any replica has been ejected (or
// re-ejected) by probes or live failures.
func (c *Client) Ejections() int64 { return c.ejections.Load() }

// CorruptRejected returns how many responses the client has rejected
// after they failed independent plan re-verification.
func (c *Client) CorruptRejected() int64 { return c.corruptRejected.Load() }

// Close stops the background readiness prober (a no-op for clients
// created without one). The client remains usable for calls; Close only
// ends the probing.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		if c.probeStop != nil {
			close(c.probeStop)
			c.probeCancel() // unblock any in-flight probe immediately
			<-c.probeDone
		}
	})
}

// ErrNoReplicas reports a pool constructed with no replica URLs.
var ErrNoReplicas = errors.New("serve: replica pool needs at least one URL")
