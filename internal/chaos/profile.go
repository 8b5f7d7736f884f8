// Package chaos is a deterministic, seed-driven fault injector for the
// discovery and serving stack. It wraps a hidden database at either
// boundary — core.Interface in-process, or the HTTP search endpoint via
// middleware on web.Server — and injects the failure modes a real hostile
// upstream exhibits: bursty 429s with and without Retry-After, transient
// 5xx answers, connection resets, truncated bodies, latency jitter and
// stalls, per-client quota shaping, and mid-crawl ranking drift.
//
// Faults are scheduled by a global attempt counter, not by probability:
// "every Nth attempt begins a burst of B". Retries advance the counter,
// so the exact injection schedule is a pure function of the profile and
// the number of attempts — tests assert injected-fault counts to the
// unit, even under parallel discovery. The one invariant every fault
// obeys: a fault is an error or a delay, never a silently wrong answer,
// which is why discovery under chaos must return the identical skyline
// with the exact same counted query total.
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind names one injectable fault class; it is the {kind=...} label on
// the chaos_faults_injected_total metric.
type Kind string

const (
	// KindRateLimit is an injected 429 (wrapping hidden.ErrRateLimited).
	KindRateLimit Kind = "rate_limit"
	// KindServerError is a transient 5xx answer.
	KindServerError Kind = "server_error"
	// KindReset is a dropped connection / transport error.
	KindReset Kind = "reset"
	// KindTruncate is a partial answer body cut mid-payload.
	KindTruncate Kind = "truncate"
	// KindStall is a long pause before a correct answer (not an error).
	KindStall Kind = "stall"
	// KindQuota is a token-bucket rejection (429 with a precise hint).
	KindQuota Kind = "quota"
	// KindDrift is a mid-crawl swap of the proprietary ranking.
	KindDrift Kind = "drift"
)

// Kinds lists every fault kind in metric/registration order.
var Kinds = []Kind{KindRateLimit, KindServerError, KindReset, KindTruncate, KindStall, KindQuota, KindDrift}

// Profile describes one fault schedule. The zero value injects nothing.
// Schedules are counter-based: attempt numbers are 1-based and global
// across all clients of the injector.
type Profile struct {
	// Name labels the profile in logs and BENCH scenario names.
	Name string
	// Seed drives the latency-jitter stream (0 = 1). Two injectors with
	// the same profile inject identical schedules and jitter sequences.
	Seed int64

	// RateLimitEvery > 0 starts a burst of RateLimitBurst consecutive
	// 429s at every multiple of RateLimitEvery (attempt n is limited
	// when n >= Every and n mod Every < Burst).
	RateLimitEvery int
	// RateLimitBurst is the burst length (0 means 1).
	RateLimitBurst int
	// RetryAfter is the hint advertised with injected 429s (0 = none,
	// exercising the client's own backoff schedule).
	RetryAfter time.Duration

	// ErrorEvery > 0 answers every Nth attempt with a transient 5xx.
	ErrorEvery int
	// ResetEvery > 0 drops the connection on every Nth attempt.
	ResetEvery int
	// TruncateEvery > 0 cuts every Nth answer body mid-payload.
	TruncateEvery int

	// StallEvery > 0 delays every Nth answer by Stall before serving it.
	StallEvery int
	// Stall is the stall duration (0 disables StallEvery).
	Stall time.Duration
	// Latency is added to every attempt; LatencyJitter widens it by a
	// seeded uniform draw from [0, LatencyJitter).
	Latency       time.Duration
	LatencyJitter time.Duration

	// QuotaBurst > 0 enables token-bucket quota shaping: the bucket
	// holds QuotaBurst tokens and refills one per QuotaRefill. An empty
	// bucket answers 429 with a Retry-After hint equal to the wait for
	// the next token.
	QuotaBurst  int
	QuotaRefill time.Duration

	// DriftEvery > 0 rotates the target database's ranking function
	// after every Nth served (answered) query — see Injector.SetDrift.
	DriftEvery int

	// Down fails every attempt (alternating resets and 5xx) — a full
	// upstream outage for degradation drills. Not recoverable by
	// retrying; consumers are expected to park and serve stale.
	Down bool
}

// Active reports whether the profile injects anything at all.
func (p Profile) Active() bool {
	return p.Down || p.RateLimitEvery > 0 || p.ErrorEvery > 0 || p.ResetEvery > 0 ||
		p.TruncateEvery > 0 || (p.StallEvery > 0 && p.Stall > 0) || p.Latency > 0 ||
		p.LatencyJitter > 0 || p.QuotaBurst > 0 || p.DriftEvery > 0
}

// FaultAt returns the scheduled fault for 1-based attempt n, or "" when
// the attempt passes through clean. It is a pure function — tests
// compute expected injection counts by summing FaultAt over 1..N.
// Quota shaping is time-based and therefore not part of the pure
// schedule; it applies only to attempts FaultAt leaves clean.
// Precedence when schedules collide on one attempt: rate limit, reset,
// server error, truncation, stall.
func (p Profile) FaultAt(n int64) Kind {
	if n < 1 {
		return ""
	}
	if p.Down {
		if n%2 == 1 {
			return KindReset
		}
		return KindServerError
	}
	if p.RateLimitEvery > 0 && n >= int64(p.RateLimitEvery) {
		burst := int64(p.RateLimitBurst)
		if burst < 1 {
			burst = 1
		}
		if n%int64(p.RateLimitEvery) < burst {
			return KindRateLimit
		}
	}
	if p.ResetEvery > 0 && n%int64(p.ResetEvery) == 0 {
		return KindReset
	}
	if p.ErrorEvery > 0 && n%int64(p.ErrorEvery) == 0 {
		return KindServerError
	}
	if p.TruncateEvery > 0 && n%int64(p.TruncateEvery) == 0 {
		return KindTruncate
	}
	if p.StallEvery > 0 && p.Stall > 0 && n%int64(p.StallEvery) == 0 {
		return KindStall
	}
	return ""
}

// ScheduledCounts sums FaultAt over attempts 1..n — the exact number of
// injections per scheduled kind an injector must report after serving n
// attempts (quota and drift are stateful and excluded).
func (p Profile) ScheduledCounts(n int64) map[Kind]int64 {
	out := make(map[Kind]int64)
	for i := int64(1); i <= n; i++ {
		if k := p.FaultAt(i); k != "" {
			out[k]++
		}
	}
	return out
}

// String renders the profile as a spec parseable by ParseProfile: every
// field but Name round-trips, and a profile with nothing set is "off".
func (p Profile) String() string {
	var parts []string
	add := func(s string) { parts = append(parts, s) }
	if p.Down {
		add("down")
	}
	if p.RateLimitEvery > 0 {
		b := p.RateLimitBurst
		if b < 1 {
			b = 1
		}
		add(fmt.Sprintf("rl=%d:%d", p.RateLimitEvery, b))
	}
	if p.RetryAfter > 0 {
		add("ra=" + p.RetryAfter.String())
	}
	if p.ErrorEvery > 0 {
		add(fmt.Sprintf("err=%d", p.ErrorEvery))
	}
	if p.ResetEvery > 0 {
		add(fmt.Sprintf("reset=%d", p.ResetEvery))
	}
	if p.TruncateEvery > 0 {
		add(fmt.Sprintf("trunc=%d", p.TruncateEvery))
	}
	if p.StallEvery > 0 {
		add(fmt.Sprintf("stall=%d:%s", p.StallEvery, p.Stall))
	}
	if p.Latency > 0 {
		add("lat=" + p.Latency.String())
	}
	if p.LatencyJitter > 0 {
		add("jit=" + p.LatencyJitter.String())
	}
	if p.QuotaBurst > 0 {
		add(fmt.Sprintf("quota=%d:%s", p.QuotaBurst, p.QuotaRefill))
	}
	if p.DriftEvery > 0 {
		add(fmt.Sprintf("drift=%d", p.DriftEvery))
	}
	if p.Seed != 0 {
		add(fmt.Sprintf("seed=%d", p.Seed))
	}
	if len(parts) == 0 {
		return "off"
	}
	return strings.Join(parts, ",")
}

// Presets returns the named built-in profiles, the vocabulary shared by
// skyserve -chaos, smoke_e2e -chaos and the BENCH chaos scenarios.
func Presets() map[string]Profile {
	return map[string]Profile{
		// bursty: the paper's canonical adversary — periodic 429 bursts,
		// no Retry-After, so the client's own backoff does the work.
		"bursty": {Name: "bursty", RateLimitEvery: 7, RateLimitBurst: 2},
		// polite: 429 bursts that advertise Retry-After 1s, the
		// well-behaved rate limiter clients must honor exactly.
		"polite": {Name: "polite", RateLimitEvery: 9, RateLimitBurst: 2, RetryAfter: time.Second},
		// flaky: transient 5xx and connection resets, no rate limiting.
		"flaky": {Name: "flaky", ErrorEvery: 11, ResetEvery: 17},
		// hostile: everything at once — bursty 429s, 5xx, resets,
		// truncated bodies and latency jitter. The smoke profile.
		"hostile": {Name: "hostile", RateLimitEvery: 6, RateLimitBurst: 2, ErrorEvery: 13,
			ResetEvery: 17, TruncateEvery: 23, Latency: time.Millisecond, LatencyJitter: time.Millisecond},
		// down: full outage; only parking and stale serving survive it.
		"down": {Name: "down", Down: true},
	}
}

// PresetNames lists the built-in profile names, sorted.
func PresetNames() []string {
	ps := Presets()
	names := make([]string, 0, len(ps))
	for n := range ps {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseProfile resolves spec into a Profile: a preset name ("hostile"),
// "off"/"" for the zero profile, or a comma-separated field spec such as
// "rl=7:2,ra=1s,err=13,reset=17,trunc=29,stall=97:50ms,lat=2ms,jit=1ms,
// quota=20:100ms,drift=50,seed=42,down". A spec may also start with a
// preset name and override fields: "hostile,seed=9".
func ParseProfile(spec string) (Profile, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return Profile{}, nil
	}
	var p Profile
	fields := strings.Split(spec, ",")
	if base, ok := Presets()[strings.TrimSpace(fields[0])]; ok {
		p = base
		fields = fields[1:]
	} else {
		p.Name = spec
	}
	for _, f := range fields {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		key, val, hasVal := strings.Cut(f, "=")
		if !hasVal {
			if key == "down" {
				p.Down = true
				continue
			}
			return Profile{}, fmt.Errorf("chaos: unknown profile field %q (presets: %s)", f, strings.Join(PresetNames(), ", "))
		}
		var err error
		switch key {
		case "rl":
			p.RateLimitEvery, p.RateLimitBurst, err = parseEveryBurst(val)
		case "ra":
			p.RetryAfter, err = parseDuration(val)
		case "err":
			p.ErrorEvery, err = parsePositive(val)
		case "reset":
			p.ResetEvery, err = parsePositive(val)
		case "trunc":
			p.TruncateEvery, err = parsePositive(val)
		case "stall":
			var d time.Duration
			p.StallEvery, d, err = parseEveryDuration(val)
			p.Stall = d
		case "lat":
			p.Latency, err = parseDuration(val)
		case "jit":
			p.LatencyJitter, err = parseDuration(val)
		case "quota":
			var d time.Duration
			p.QuotaBurst, d, err = parseEveryDuration(val)
			p.QuotaRefill = d
		case "drift":
			p.DriftEvery, err = parsePositive(val)
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		default:
			return Profile{}, fmt.Errorf("chaos: unknown profile field %q", key)
		}
		if err != nil {
			return Profile{}, fmt.Errorf("chaos: bad %s value %q: %v", key, val, err)
		}
	}
	return p, nil
}

func parsePositive(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if v < 1 {
		return 0, fmt.Errorf("must be >= 1")
	}
	return v, nil
}

func parseEveryBurst(s string) (every, burst int, err error) {
	ev, b, has := strings.Cut(s, ":")
	if every, err = parsePositive(ev); err != nil {
		return 0, 0, err
	}
	burst = 1
	if has {
		if burst, err = parsePositive(b); err != nil {
			return 0, 0, err
		}
	}
	return every, burst, nil
}

func parseEveryDuration(s string) (every int, d time.Duration, err error) {
	ev, ds, has := strings.Cut(s, ":")
	if every, err = parsePositive(ev); err != nil {
		return 0, 0, err
	}
	if !has {
		return 0, 0, fmt.Errorf("want N:duration")
	}
	if d, err = parseDuration(ds); err != nil {
		return 0, 0, err
	}
	return every, d, nil
}

// parseDuration is time.ParseDuration without negative durations, which
// no profile field means anything by.
func parseDuration(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err == nil && d < 0 {
		return 0, fmt.Errorf("must be >= 0")
	}
	return d, err
}
