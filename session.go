package bluefi

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"bluefi/internal/a2dp"
	"bluefi/internal/obs"
	"bluefi/internal/obs/sketch"
	"bluefi/internal/obs/slo"
)

// Multi-session A2DP (DESIGN.md §14): the SessionManager multiplexes N
// concurrent audio streams over one shared Pool. Three mechanisms keep
// the fleet inside its real-time envelope where N isolated streams
// would collapse:
//
//   - Admission control: before a session joins, its steady-state
//     segment arrivals — together with every live session's and the
//     pool's current backlog — are replayed through the deterministic
//     EDF slot-time simulator (internal/a2dp), with the per-segment
//     service time estimated from the pool's measured job-latency
//     histogram. Projected deadline-miss ratio over budget ⇒
//     ErrAdmissionRejected (or parked on the bounded pending queue).
//   - A global shedding budget: each session's Governor requests every
//     Shedding drop from one fleet-wide budget that enforces the global
//     ship floor and allocates drops by weighted max-min fairness, so a
//     struggling session borrows headroom without starving anyone below
//     their weighted share.
//   - EDF job scheduling: the pool runs whichever session's segment is
//     closest to its 625 µs slot, not whichever was submitted first.
//
// The manager is goroutine-free: admission, promotion and eviction all
// run on the caller, so it adds nothing for the leak checker to track.

// ErrAdmissionRejected is returned by SessionManager.Admit (and wraps
// the detail of why) when the projected deadline-miss ratio of the
// fleet plus the candidate exceeds the configured budget.
var ErrAdmissionRejected = errors.New("bluefi: session admission rejected")

// SessionManagerConfig tunes the multi-session coordination plane. The
// zero value is usable; every knob has a documented default.
type SessionManagerConfig struct {
	// GlobalShipFloor is the fleet-wide minimum shipped fraction the
	// shedding budget enforces (default 0.8 — the single-stream chaos
	// bound, now shared instead of per-stream).
	GlobalShipFloor float64
	// MissBudget is the maximum projected deadline-miss ratio admission
	// tolerates (default 0.05).
	MissBudget float64
	// HorizonPackets is how many media packets per session the admission
	// projection replays (default 16).
	HorizonPackets int
	// ServiceSlots overrides the per-segment service-time estimate in
	// 625 µs slots (0 = live estimate from the pool's job-latency
	// histogram, falling back to 1 slot before the first job). Evals pin
	// it so the capacity knee is a property of the workload, not the
	// host.
	ServiceSlots float64
	// SlackSlots is the admission projection's per-deadline queueing
	// allowance (0 = default 4; negative = none).
	SlackSlots float64
	// AdmissionQueue bounds how many rejected sessions Enqueue may park
	// for promotion when an eviction frees headroom (default 0 = no
	// queue; Enqueue then behaves like Admit).
	AdmissionQueue int
	// Degrade is the policy template applied to sessions whose
	// AudioConfig.Degrade is nil. Coordinator and SessionID are
	// overwritten per session either way: every managed stream is
	// coupled to the fleet budget.
	Degrade DegradePolicy
}

func (c SessionManagerConfig) withDefaults() SessionManagerConfig {
	if c.GlobalShipFloor <= 0 || c.GlobalShipFloor >= 1 {
		c.GlobalShipFloor = 0.8
	}
	if c.MissBudget <= 0 {
		c.MissBudget = 0.05
	}
	if c.HorizonPackets <= 0 {
		c.HorizonPackets = 16
	}
	if c.AdmissionQueue < 0 {
		c.AdmissionQueue = 0
	}
	return c
}

// SessionConfig describes one candidate A2DP session.
type SessionConfig struct {
	// ID names the session; unique among live and pending sessions.
	ID string
	// Weight is the session's share of the fleet shedding budget under
	// weighted max-min fairness (≤0 = 1).
	Weight float64
	// Audio is the stream configuration; its Degrade field (or the
	// manager's template) is coupled to the fleet budget.
	Audio AudioConfig
}

// smMetrics holds the manager's telemetry handles; nil disables them at
// one branch per record.
type smMetrics struct {
	reg *obs.Registry

	admitted *obs.Counter
	rejected *obs.Counter
	queued   *obs.Counter
	evicted  *obs.Counter
	pending  *obs.Gauge
	missGate *obs.Gauge

	active   *obs.Gauge
	shipped  *obs.Counter
	dropped  *obs.Counter
	segments *obs.Counter
	misses   *obs.Counter
	slack    *obs.Histogram
}

func newSMMetrics(r *obs.Registry) *smMetrics {
	if r == nil {
		return nil
	}
	return &smMetrics{
		reg: r,
		admitted: r.Counter("bluefi_a2dp_admission_admitted_total",
			"sessions admitted by the headroom projection"),
		rejected: r.Counter("bluefi_a2dp_admission_rejected_total",
			"session admissions refused (projected deadline-miss ratio over budget)"),
		queued: r.Counter("bluefi_a2dp_admission_queued_total",
			"rejected sessions parked on the pending queue"),
		evicted: r.Counter("bluefi_a2dp_admission_evicted_total",
			"sessions evicted from the manager"),
		pending: r.Gauge("bluefi_a2dp_admission_pending",
			"sessions parked awaiting promotion"),
		missGate: r.Gauge("bluefi_a2dp_admission_miss_permille",
			"projected deadline-miss ratio of the last admission decision, in permille"),
		active: r.Gauge("bluefi_a2dp_session_active",
			"live sessions multiplexed over the shared pool"),
		shipped: r.Counter("bluefi_a2dp_session_shipped_total",
			"media packets shipped across all managed sessions"),
		dropped: r.Counter("bluefi_a2dp_session_dropped_total",
			"media packets shed or lost across all managed sessions"),
		segments: r.Counter("bluefi_a2dp_session_segments_total",
			"segments synthesized across all managed sessions"),
		misses: r.Counter("bluefi_a2dp_session_deadline_miss_total",
			"segments that overran their slot budget across all managed sessions"),
		slack: r.Histogram("bluefi_a2dp_session_slack_seconds",
			"per-segment deadline slack across all managed sessions",
			obs.LinearBuckets(-10e-3, 1.25e-3, 17)),
	}
}

func (m *smMetrics) event(kind string, attrs ...obs.Label) {
	if m == nil {
		return
	}
	m.reg.Event(kind, attrs...)
}

// SessionManager multiplexes A2DP sessions over one shared Pool. Safe
// for concurrent use. Build one with Pool.NewSessionManager.
type SessionManager struct {
	pool   *Pool
	cfg    SessionManagerConfig
	budget *a2dp.ShedBudget
	met    *smMetrics

	mu       sync.Mutex
	sessions map[string]*Session // guarded by mu
	order    []string            // guarded by mu; admission order
	pendingQ []*PendingSession   // guarded by mu; FIFO
	seq      uint64              // guarded by mu; admissions ever, for phase stagger
	lastProj a2dp.Projection     // guarded by mu
}

// NewSessionManager builds a session coordination plane over the pool.
// The manager shares the pool's telemetry registry, and admitted sessions
// get the pool's deadline-ordered service.
func (p *Pool) NewSessionManager(cfg SessionManagerConfig) (*SessionManager, error) {
	if p.isClosed() {
		return nil, ErrPoolClosed
	}
	cfg = cfg.withDefaults()
	reg := p.opts.Telemetry
	return &SessionManager{
		pool: p,
		cfg:  cfg,
		budget: a2dp.NewShedBudget(a2dp.ShedBudgetConfig{
			GlobalShipFloor: cfg.GlobalShipFloor,
			Telemetry:       reg,
		}),
		met:      newSMMetrics(reg),
		sessions: make(map[string]*Session),
	}, nil
}

// demandFor derives the session's steady-state slot-time load from its
// audio configuration, mirroring NewAudioStream's defaulting so the
// projection prices exactly the stream that would be built.
func demandFor(cfg SessionConfig, phaseSeq uint64) (a2dp.SessionDemand, error) {
	ac := cfg.Audio
	if ac.PacketType == 0 {
		ac.PacketType = DM5
	}
	if ac.SBC == (SBCConfig{}) {
		ac.SBC = SBCConfig{SampleRateHz: 44100, Blocks: 16, Stereo: true, Subbands: 8, Bitpool: 35}
	}
	pt, err := ac.PacketType.inner()
	if err != nil {
		return a2dp.SessionDemand{}, err
	}
	sbcCfg, err := ac.SBC.inner()
	if err != nil {
		return a2dp.SessionDemand{}, err
	}
	frames := ac.FramesPerPacket
	if frames <= 0 {
		frames = a2dp.FramesPerPacket(pt, sbcCfg)
	}
	if frames < 1 {
		frames = 1
	}
	// One Send's wire bytes: L2CAP header + AVDTP media header + frames.
	wire := 4 + a2dp.MediaHeaderLen + frames*sbcCfg.FrameBytes()
	segs := (wire + pt.MaxPayload() - 1) / pt.MaxPayload()
	segSlots := pt.Slots()
	if segSlots%2 == 1 {
		segSlots++
	}
	samples := frames * sbcCfg.SamplesPerFrame()
	periodSlots := float64(samples) / float64(ac.SBC.SampleRateHz) / 625e-6
	weight := cfg.Weight
	if weight <= 0 {
		weight = 1
	}
	return a2dp.SessionDemand{
		ID:                cfg.ID,
		Weight:            weight,
		SegmentsPerPacket: segs,
		SegmentSlots:      segSlots,
		PacketPeriodSlots: periodSlots,
		// Stagger arrival phases so same-config sessions do not all
		// burst on slot 0 of the projection.
		PhaseSlots: periodSlots * float64(phaseSeq%4) / 4,
	}, nil
}

// serviceSlotsLocked is the admission projection's per-segment service
// estimate: the configured override, else the pool's measured mean job
// latency in slots, else 1.
func (m *SessionManager) serviceSlotsLocked() float64 {
	if m.cfg.ServiceSlots > 0 {
		return m.cfg.ServiceSlots
	}
	if mean, n := m.pool.JobLatency(); n > 0 {
		return mean / 625e-6
	}
	return 1
}

// Admit projects pool headroom for the live fleet plus the candidate
// and either opens the session's stream or refuses with an error
// wrapping ErrAdmissionRejected. It never queues; see Enqueue.
func (m *SessionManager) Admit(cfg SessionConfig) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.admitLocked(cfg)
}

func (m *SessionManager) admitLocked(cfg SessionConfig) (*Session, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("bluefi: session ID must be non-empty")
	}
	if _, ok := m.sessions[cfg.ID]; ok {
		return nil, fmt.Errorf("bluefi: session %q already admitted", cfg.ID)
	}
	for _, p := range m.pendingQ {
		if p.cfg.ID == cfg.ID {
			return nil, fmt.Errorf("bluefi: session %q already pending", cfg.ID)
		}
	}
	if w := cfg.Weight; math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return nil, fmt.Errorf("bluefi: session %q weight %v is not a usable fairness weight", cfg.ID, w)
	}

	demand, err := demandFor(cfg, m.seq)
	if err != nil {
		return nil, err
	}
	demands := make([]a2dp.SessionDemand, 0, len(m.order)+1)
	for _, id := range m.order {
		demands = append(demands, m.sessions[id].demand)
	}
	demands = append(demands, demand)
	proj := a2dp.ProjectAdmission(demands, a2dp.AdmissionConfig{
		Workers:        m.pool.Workers(),
		QueueDepth:     m.pool.QueueDepth(),
		ServiceSlots:   m.serviceSlotsLocked(),
		SlackSlots:     m.cfg.SlackSlots,
		HorizonPackets: m.cfg.HorizonPackets,
	})
	m.lastProj = proj
	if m.met != nil {
		m.met.missGate.Set(int64(proj.MissRatio * 1000))
	}
	if proj.MissRatio > m.cfg.MissBudget {
		if m.met != nil {
			m.met.rejected.Inc()
		}
		m.met.event("session.reject",
			obs.L("session", cfg.ID),
			obs.L("sessions", fmt.Sprintf("%d", proj.Sessions)),
			obs.L("missRatio", fmt.Sprintf("%.4f", proj.MissRatio)))
		return nil, fmt.Errorf("%w: %q: projected deadline-miss ratio %.4f exceeds budget %.4f at %d sessions (utilization %.2f)",
			ErrAdmissionRejected, cfg.ID, proj.MissRatio, m.cfg.MissBudget, proj.Sessions, proj.Utilization)
	}

	// Couple the stream's governor to the fleet budget: the per-session
	// template (or the manager's) with Coordinator/SessionID overridden.
	ac := cfg.Audio
	dp := m.cfg.Degrade
	if ac.Degrade != nil {
		dp = *ac.Degrade
	}
	dp.Coordinator = m.budget
	dp.SessionID = cfg.ID
	ac.Degrade = &dp
	if err := m.budget.Register(cfg.ID, demand.Weight); err != nil {
		return nil, err
	}
	stream, err := m.pool.NewAudioStream(ac)
	if err != nil {
		m.budget.Unregister(cfg.ID)
		return nil, err
	}
	s := &Session{
		id:     cfg.ID,
		weight: demand.Weight,
		m:      m,
		stream: stream,
		demand: demand,
		slackQ: sketch.NewQuantile(0.01, 128),
	}
	stream.onSlack = s.noteSlack
	m.sessions[cfg.ID] = s
	m.order = append(m.order, cfg.ID)
	m.seq++
	if m.met != nil {
		m.met.admitted.Inc()
		m.met.active.Set(int64(len(m.sessions)))
	}
	m.met.event("session.admit",
		obs.L("session", cfg.ID),
		obs.L("sessions", fmt.Sprintf("%d", len(m.sessions))))
	return s, nil
}

// Enqueue is Admit with a waiting room: an immediately admittable
// session is returned ready; a rejected one is parked on the bounded
// pending queue (FIFO) for promotion when an eviction frees headroom.
// With no queue configured — or a full one — the rejection propagates.
func (m *SessionManager) Enqueue(cfg SessionConfig) (*PendingSession, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, err := m.admitLocked(cfg)
	if err == nil {
		p := &PendingSession{cfg: cfg, done: make(chan struct{})}
		p.deliver(s, nil)
		return p, nil
	}
	if !errors.Is(err, ErrAdmissionRejected) {
		return nil, err
	}
	if m.cfg.AdmissionQueue <= 0 || len(m.pendingQ) >= m.cfg.AdmissionQueue {
		return nil, err
	}
	p := &PendingSession{cfg: cfg, done: make(chan struct{})}
	m.pendingQ = append(m.pendingQ, p)
	if m.met != nil {
		m.met.queued.Inc()
		m.met.pending.Set(int64(len(m.pendingQ)))
	}
	return p, nil
}

// Evict removes a live session, returns whether it was present, and
// promotes pending sessions that now fit. The evicted Session's stream
// stays usable but is decoupled from the budget: it never sheds again.
func (m *SessionManager) Evict(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sessions[id]
	if s == nil {
		return false
	}
	delete(m.sessions, id)
	for i, o := range m.order {
		if o == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.budget.Unregister(id)
	s.evicted.Store(true)
	if m.met != nil {
		m.met.evicted.Inc()
		m.met.active.Set(int64(len(m.sessions)))
	}
	m.met.event("session.evict",
		obs.L("session", id),
		obs.L("sessions", fmt.Sprintf("%d", len(m.sessions))))
	m.promoteLocked()
	return true
}

// promoteLocked re-projects the queue head against the shrunken fleet
// and admits while there is headroom. A head that still does not fit
// keeps the queue blocked (FIFO — no starvation via queue-jumping); a
// head failing for a non-admission reason is delivered its error.
func (m *SessionManager) promoteLocked() {
	for len(m.pendingQ) > 0 {
		// Dequeue before re-projecting: the candidate must not trip its
		// own duplicate-pending check.
		p := m.pendingQ[0]
		m.pendingQ = m.pendingQ[1:]
		s, err := m.admitLocked(p.cfg)
		if err != nil && errors.Is(err, ErrAdmissionRejected) {
			m.pendingQ = append([]*PendingSession{p}, m.pendingQ...)
			break
		}
		p.deliver(s, err)
	}
	if m.met != nil {
		m.met.pending.Set(int64(len(m.pendingQ)))
	}
}

// Sessions returns a report per live session, in admission order.
func (m *SessionManager) Sessions() []SessionReport {
	m.mu.Lock()
	ss := make([]*Session, 0, len(m.order))
	for _, id := range m.order {
		ss = append(ss, m.sessions[id])
	}
	m.mu.Unlock()
	out := make([]SessionReport, len(ss))
	for i, s := range ss {
		out[i] = s.Report()
	}
	return out
}

// Pending returns how many sessions are parked awaiting promotion.
func (m *SessionManager) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pendingQ)
}

// SessionManagerReport is the manager's point-in-time summary.
type SessionManagerReport struct {
	Sessions []SessionReport       `json:"sessions"`
	Pending  int                   `json:"pending"`
	LastProj a2dp.Projection       `json:"lastProjection"`
	Budget   a2dp.ShedBudgetReport `json:"budget"`
}

// Report returns the manager summary: per-session reports, the pending
// count, the last admission projection and the fleet budget state.
func (m *SessionManager) Report() SessionManagerReport {
	m.mu.Lock()
	pending := len(m.pendingQ)
	proj := m.lastProj
	m.mu.Unlock()
	return SessionManagerReport{
		Sessions: m.Sessions(),
		Pending:  pending,
		LastProj: proj,
		Budget:   m.budget.Report(),
	}
}

// SessionSLOSpecs declares the multi-session SLOs over the manager's
// cumulative counters — feed them to an slo.Engine the way the fleet
// layer's SLOSpecs are. Returns nil without telemetry.
func (m *SessionManager) SessionSLOSpecs() []slo.Spec {
	if m.met == nil {
		return nil
	}
	return []slo.Spec{
		{
			Name:        "a2dp_session_delivery",
			Description: "Fleet-wide shipped media-packet fraction stays above the global ship floor.",
			Objective:   m.cfg.GlobalShipFloor,
			Indicator: func() (float64, float64) {
				good := m.met.shipped.Value()
				return float64(good), float64(good + m.met.dropped.Value())
			},
		},
		{
			Name:        "a2dp_session_deadline",
			Description: "95% of synthesized segments make their slot budget.",
			Objective:   0.95,
			Indicator: func() (float64, float64) {
				total := m.met.segments.Value()
				return float64(total - m.met.misses.Value()), float64(total)
			},
		},
	}
}

// Session is one admitted A2DP stream under the manager. Safe for
// concurrent use with the other sessions; one session's Send calls are
// serial like AudioStream's.
type Session struct {
	id     string
	weight float64
	m      *SessionManager
	stream *AudioStream
	demand a2dp.SessionDemand

	shipped atomic.Uint64
	dropped atomic.Uint64
	evicted atomic.Bool

	slackMu  sync.Mutex
	segments uint64           // guarded by slackMu
	misses   uint64           // guarded by slackMu
	minSlack time.Duration    // guarded by slackMu; valid when segments > 0
	slackQ   *sketch.Quantile // positive slack quantiles
}

// ID returns the session's name.
func (s *Session) ID() string { return s.id }

// Stream exposes the underlying audio stream (codec geometry, health).
func (s *Session) Stream() *AudioStream { return s.stream }

// Send encodes and synthesizes one media packet (see AudioStream.Send)
// and keeps the manager's shipped/dropped accounting — a (nil, nil)
// return is a shed or fault-dropped packet.
func (s *Session) Send(pcm [][]float64) ([]*AudioTransmission, error) {
	out, err := s.stream.Send(pcm)
	met := s.m.met
	switch {
	case err != nil:
		// Hard failure: surfaced to the caller, not part of the
		// shed/ship budget arithmetic.
	case out == nil:
		s.dropped.Add(1)
		if met != nil {
			met.dropped.Inc()
		}
	default:
		s.shipped.Add(1)
		if met != nil {
			met.shipped.Inc()
		}
	}
	return out, err
}

// noteSlack is the stream's per-segment deadline-slack export hook;
// called concurrently from pool workers.
func (s *Session) noteSlack(slack time.Duration) {
	s.slackMu.Lock()
	if s.segments == 0 || slack < s.minSlack {
		s.minSlack = slack
	}
	s.segments++
	if slack < 0 {
		s.misses++
	}
	s.slackMu.Unlock()
	if slack > 0 {
		s.slackQ.Observe(slack.Seconds())
	}
	if met := s.m.met; met != nil {
		met.segments.Inc()
		if slack < 0 {
			met.misses.Inc()
		}
		met.slack.Observe(slack.Seconds())
	}
}

// SessionReport is one session's point-in-time summary.
type SessionReport struct {
	ID      string      `json:"id"`
	Weight  float64     `json:"weight"`
	State   HealthState `json:"state"`
	Evicted bool        `json:"evicted,omitempty"`
	// Shipped/Dropped count media packets; ShippedRatio is their ratio
	// (1 before any traffic).
	Shipped      uint64  `json:"shipped"`
	Dropped      uint64  `json:"dropped"`
	ShippedRatio float64 `json:"shippedRatio"`
	// Segments/DeadlineMisses count synthesized segments; the slack
	// fields summarize the per-segment deadline-slack export.
	Segments        uint64  `json:"segments"`
	DeadlineMisses  uint64  `json:"deadlineMisses"`
	MinSlackSeconds float64 `json:"minSlackSeconds"`
	P50SlackSeconds float64 `json:"p50SlackSeconds"`
	P99SlackSeconds float64 `json:"p99SlackSeconds"`
	// Governor is the stream's degradation summary.
	Governor DegradationReport `json:"governor"`
}

// Report returns the session's current summary.
func (s *Session) Report() SessionReport {
	rep := SessionReport{
		ID:      s.id,
		Weight:  s.weight,
		State:   s.stream.Health(),
		Evicted: s.evicted.Load(),
		Shipped: s.shipped.Load(),
		Dropped: s.dropped.Load(),
	}
	if total := rep.Shipped + rep.Dropped; total > 0 {
		rep.ShippedRatio = float64(rep.Shipped) / float64(total)
	} else {
		rep.ShippedRatio = 1
	}
	s.slackMu.Lock()
	rep.Segments = s.segments
	rep.DeadlineMisses = s.misses
	if s.segments > 0 {
		rep.MinSlackSeconds = s.minSlack.Seconds()
	}
	s.slackMu.Unlock()
	// P99 here is the tail 99% of segments beat (the 1st-percentile
	// positive slack); misses themselves show up in DeadlineMisses and
	// MinSlackSeconds.
	rep.P50SlackSeconds = s.slackQ.Value(0.50)
	rep.P99SlackSeconds = s.slackQ.Value(0.01)
	rep.Governor = s.stream.Report()
	return rep
}

// PendingSession is a session parked by Enqueue: it resolves to a live
// Session (or an error) when an eviction frees enough headroom.
type PendingSession struct {
	cfg  SessionConfig
	done chan struct{}

	mu    sync.Mutex
	s     *Session // guarded by mu until done closes
	err   error    // guarded by mu until done closes
	ready bool     // guarded by mu
}

// deliver resolves the pending session exactly once.
func (p *PendingSession) deliver(s *Session, err error) {
	p.mu.Lock()
	if p.ready {
		p.mu.Unlock()
		return
	}
	p.s, p.err, p.ready = s, err, true
	p.mu.Unlock()
	close(p.done)
}

// Done is closed when the session has been resolved either way.
func (p *PendingSession) Done() <-chan struct{} { return p.done }

// Session returns the resolved session, whether resolution happened,
// and the resolution error (nil session + nil error means still
// pending).
func (p *PendingSession) Session() (*Session, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.s, p.ready, p.err
}
