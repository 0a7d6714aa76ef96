// Package bluefi transmits Bluetooth packets with commodity 802.11n WiFi
// hardware — a reproduction of "BlueFi: Bluetooth over WiFi" (Cho & Shin,
// SIGCOMM 2021).
//
// The library converts a Bluetooth packet (a BLE advertisement, a classic
// BR/EDR baseband packet, or raw GFSK air bits) into an 802.11n PSDU byte
// string. When an unmodified WiFi chip transmits that PSDU, the resulting
// waveform is decodable by unmodified Bluetooth receivers. The conversion
// reverses every block of the WiFi transmit chain: cyclic-prefix insertion
// and OFDM windowing, QAM quantization, pilot/null subcarriers, the
// convolutional FEC, and the scrambler.
//
// Quick start:
//
//	syn, err := bluefi.New(bluefi.Options{Chip: bluefi.RTL8811AU})
//	pkt, err := syn.Beacon(bluefi.IBeacon{...}.ADStructures(), addr, 38)
//	// hand pkt.PSDU to the WiFi driver; or simulate reception:
//	rep, err := bluefi.Simulate(pkt, bluefi.SimulationParams{DistanceM: 1.5})
//
// Everything runs on a pure-Go simulated substrate — WiFi PHY, Bluetooth
// baseband, radio channel, GFSK receivers — so the paper's experiments
// reproduce without hardware (see DESIGN.md and EXPERIMENTS.md).
package bluefi

import (
	"fmt"
	"time"

	"bluefi/internal/a2dp"
	"bluefi/internal/beacon"
	"bluefi/internal/bt"
	"bluefi/internal/btrx"
	"bluefi/internal/channel"
	"bluefi/internal/chip"
	"bluefi/internal/core"
	"bluefi/internal/faults"
	"bluefi/internal/gfsk"
	"bluefi/internal/obs"
)

// Telemetry is the unified observability registry: typed metrics
// (counters, gauges, latency histograms), span traces of the synthesis
// pipeline, and exporters. Attach one registry via Options.Telemetry
// (and a2dp.StreamConfig.Telemetry / NewPool) to see stage latency
// histograms, pool queue depth, scheduler deadline slack and FEC
// statistics; serve Telemetry.Handler() for /metrics (Prometheus text
// format), /metrics.json and /traces. A nil registry disables all
// recording at the cost of one branch per record site.
type Telemetry = obs.Registry

// NewTelemetry returns an empty telemetry registry.
func NewTelemetry() *Telemetry { return obs.NewRegistry() }

// TelemetryCounter, TelemetryGauge and TelemetryHistogram name the
// metric handles a Telemetry registry hands out, so callers can store
// them in struct fields and register metrics of their own next to the
// built-in bluefi_* families.
type (
	TelemetryCounter   = obs.Counter
	TelemetryGauge     = obs.Gauge
	TelemetryHistogram = obs.Histogram
)

// FaultPlan declares deterministic fault injection for chaos testing:
// seed-driven worker panics, synthesis errors, job latency inflation and
// interference bursts. Attach one via Options.Faults; nil (the default)
// disables injection entirely, the production configuration. Faults fired
// appear in Telemetry as bluefi_faults_injected_total{kind}. See
// DESIGN.md §9 for the fault model.
type FaultPlan = faults.Plan

// ErrInjectedFault marks errors fabricated by a FaultPlan; match with
// errors.Is to tell injected failures from real ones.
var ErrInjectedFault = faults.ErrInjected

// DegradePolicy tunes an audio stream's graceful degradation (attach
// via AudioConfig.Degrade; the zero value gives sensible defaults). The
// stream walks Healthy → Degraded → Shedding on sustained deadline
// misses, synthesis faults or interference — stepping down the SBC
// bitpool, shrinking the AFH hop set to the cleanest channels, and
// finally shedding media packets above a shipped-fraction floor — and
// recovers with hysteresis once the link stays clean. See DESIGN.md §9.
type DegradePolicy = a2dp.PolicyConfig

// HealthState is an audio stream's degradation state.
type HealthState = a2dp.Health

// Audio stream health states (see AudioStream.Health).
const (
	HealthHealthy  = a2dp.Healthy
	HealthDegraded = a2dp.Degraded
	HealthShedding = a2dp.Shedding
)

// DegradationReport summarizes a stream's degradation history: frames
// shipped vs dropped, slots spent per health state, transitions, and the
// currently applied quality targets (see AudioStream.Report).
type DegradationReport = a2dp.Report

// Mode selects the FEC-inversion strategy (paper §2.7).
type Mode int

// Synthesis modes.
const (
	// Quality runs the weighted Viterbi search (rate 5/6) — best fidelity,
	// tens of milliseconds per packet.
	Quality Mode = iota
	// RealTime runs the O(T) exact-match inverter (rate 2/3) — fits the
	// 1.25 ms Bluetooth slot-pair budget, as the audio application needs.
	RealTime
)

// ChipModel selects the simulated WiFi chip whose quirks (scrambler-seed
// policy, frame limits, transmit power) the synthesis must match.
type ChipModel int

// Supported chips — the paper's two evaluation devices plus a generic
// 802.11n part with an incrementing scrambler seed.
const (
	AR9331 ChipModel = iota
	RTL8811AU
	Generic80211n
)

func (c ChipModel) model() (chip.Model, error) {
	switch c {
	case AR9331:
		return chip.AR9331, nil
	case RTL8811AU:
		return chip.RTL8811AU, nil
	case Generic80211n:
		return chip.Generic80211n, nil
	}
	return chip.Model{}, fmt.Errorf("bluefi: unknown chip model %d", int(c))
}

// Options configures a Synthesizer. The zero value is usable: quality
// mode on WiFi channel 3 with the AR9331 chip model.
type Options struct {
	// Chip selects the target WiFi chip.
	Chip ChipModel
	// WiFiChannel pins the 2.4 GHz channel (default 3). The Bluetooth
	// frequency must fall inside it; Plan lists what each channel covers.
	WiFiChannel int
	// Mode selects Quality (default) or RealTime synthesis.
	Mode Mode
	// Telemetry, when non-nil, receives synthesis metrics and spans (see
	// the Telemetry type). Pools and audio streams built from these
	// options share the registry.
	Telemetry *Telemetry
	// Faults, when non-nil, arms the deterministic fault injector (see
	// FaultPlan) — chaos testing only; leave nil in production.
	Faults *FaultPlan

	// JobTimeout bounds one pool job's queue wait plus execution; a job
	// exceeding it fails with ErrJobTimeout (0 = no deadline). The worker
	// is not interrupted — synthesis is CPU-bound — but the late result
	// is discarded.
	JobTimeout time.Duration
	// Retry re-runs pool jobs that fail retryably (panic, timeout,
	// injected fault) with exponential backoff.
	Retry RetryPolicy
	// QueueDepth bounds the pool's job queue (0 = 4×workers).
	QueueDepth int
	// Overload selects what a full queue does with new jobs: Block
	// (default), Reject, or DropOldest. The queue itself is always
	// earliest-deadline-first: audio streams stamp every segment job with
	// its Bluetooth slot clock, so under load the segment closest to its
	// 625 µs slot runs first, deadline-less batch jobs yield to real-time
	// work and pop FIFO among themselves, and DropOldest evicts the job
	// with the most slack to spare; see DESIGN.md §14.3.
	Overload OverloadPolicy
}

// Synthesizer converts Bluetooth packets to WiFi PSDUs for one chip and
// channel. A Synthesizer's methods must not be called concurrently — but
// concurrency is available one level up: Pool owns a fleet of independent
// Synthesizers behind a work queue (SynthesizeBatch / BeaconBatch). That
// is the only level of concurrency: each Synthesizer runs its
// rehearsal-scored phase search serially, so a packet's PSDU does not
// depend on GOMAXPROCS or on which worker built it.
type Synthesizer struct {
	opts    Options
	chip    *chip.Chip
	quality *core.Synthesizer // BLE path (LE 1M GFSK)
	br      *core.Synthesizer // BR path (basic-rate GFSK)
	inj     *faults.Injector  // nil without Options.Faults
}

// New builds a Synthesizer.
func New(opts Options) (*Synthesizer, error) {
	if opts.WiFiChannel == 0 {
		opts.WiFiChannel = 3
	}
	m, err := ChipModel(opts.Chip).model()
	if err != nil {
		return nil, err
	}
	c := chip.New(m)
	var inj *faults.Injector
	if opts.Faults != nil {
		inj = faults.New(*opts.Faults, opts.Telemetry)
	}
	mk := func(g gfsk.Config) (*core.Synthesizer, error) {
		o := core.DefaultOptions()
		o.Mode = core.Mode(opts.Mode)
		o.WiFiChannel = opts.WiFiChannel
		o.ScramblerSeed = c.NextSeed()
		o.GFSK = g
		o.Telemetry = opts.Telemetry
		o.Faults = inj
		return core.New(o)
	}
	q, err := mk(gfsk.BLEConfig())
	if err != nil {
		return nil, err
	}
	b, err := mk(gfsk.BRConfig())
	if err != nil {
		return nil, err
	}
	return &Synthesizer{opts: opts, chip: c, quality: q, br: b, inj: inj}, nil
}

// Packet is a synthesized WiFi frame carrying a Bluetooth transmission.
type Packet struct {
	// PSDU is the byte string to hand to the WiFi driver (with the MCS
	// below, short guard interval, scrambler seed per the chip model).
	PSDU []byte
	// MCS is the modulation-and-coding scheme the frame must use (7 in
	// quality mode, 5 in real-time mode).
	MCS int
	// WiFiChannel and FrequencyMHz record the frequency plan.
	WiFiChannel  int
	FrequencyMHz float64
	// AirtimeSeconds is the frame's on-air duration.
	AirtimeSeconds float64
	// Fidelity reports the in-band phase RMSE of the predicted waveform
	// against the ideal Bluetooth waveform, in radians (lower is better;
	// ≲0.3 decodes reliably on strong links).
	Fidelity float64
	// RehearsalMismatches counts bit decisions the synthesis-time
	// reception rehearsal got wrong for the chosen candidate (−1 when no
	// rehearsal ran). Nonzero predicts failure on a clean link; callers
	// with scheduling freedom (the audio path) re-slot such packets.
	RehearsalMismatches int
	// BLEChannel is set for advertising packets (37–39), −1 otherwise.
	BLEChannel int

	res *core.Result
}

func (s *Synthesizer) wrap(res *core.Result, bleChannel int) (*Packet, error) {
	at, err := s.chip.Airtime(len(res.PSDU), s.mcs())
	if err != nil {
		return nil, err
	}
	return &Packet{
		PSDU:                res.PSDU,
		MCS:                 s.mcs(),
		WiFiChannel:         res.Plan.WiFiChannel,
		FrequencyMHz:        res.Plan.WiFiCenterMHz + res.Plan.OffsetHz/1e6,
		AirtimeSeconds:      at,
		Fidelity:            res.PhaseRMSE,
		RehearsalMismatches: res.RehearsalMismatches,
		BLEChannel:          bleChannel,
		res:                 res,
	}, nil
}

func (s *Synthesizer) mcs() int { return core.Mode(s.opts.Mode).MCS() }

// Beacon synthesizes a BLE advertising packet (up to 31 bytes of AD
// structures) on advertising channel 37, 38 or 39. Only channels covered
// by the configured WiFi channel work; channel 38 (2426 MHz) pairs with
// WiFi channel 3 as in the paper.
func (s *Synthesizer) Beacon(adStructures []byte, addr [6]byte, bleChannel int) (*Packet, error) {
	adv, err := beacon.Advertisement(addr, adStructures)
	if err != nil {
		return nil, err
	}
	air, err := adv.AirBits(bleChannel)
	if err != nil {
		return nil, err
	}
	freq, err := bt.BLEChannelMHz(bleChannel)
	if err != nil {
		return nil, err
	}
	res, err := s.quality.Synthesize(air, freq)
	if err != nil {
		return nil, err
	}
	return s.wrap(res, bleChannel)
}

// BRPacket synthesizes a classic BR/EDR baseband packet on a Bluetooth
// channel index (0–78). The device supplies the access code and CRC
// context; the packet's Clock field must hold the transmission slot's
// clock (it whitens the payload).
func (s *Synthesizer) BRPacket(dev Device, pkt *BasebandPacket, btChannel int) (*Packet, error) {
	if btChannel < 0 || btChannel >= bt.NumChannels {
		return nil, fmt.Errorf("bluefi: Bluetooth channel %d out of range", btChannel)
	}
	pt, err := pkt.Type.inner()
	if err != nil {
		return nil, err
	}
	inner := &bt.Packet{
		Type:    pt,
		LTAddr:  pkt.LTAddr,
		Flow:    pkt.Flow,
		ARQN:    pkt.ARQN,
		SEQN:    pkt.SEQN,
		Payload: pkt.Payload,
		Clock:   pkt.Clock,
		LLID:    pkt.LLID,
	}
	air, err := inner.AirBits(bt.Device(dev))
	if err != nil {
		return nil, err
	}
	res, err := s.br.Synthesize(air, bt.ChannelMHz(btChannel))
	if err != nil {
		return nil, err
	}
	return s.wrap(res, -1)
}

// RawGFSK synthesizes arbitrary Bluetooth air bits (1 Mb/s GFSK) at a
// carrier frequency in MHz. ble selects LE 1M deviation (±250 kHz) over
// basic-rate (±160 kHz).
func (s *Synthesizer) RawGFSK(airBits []byte, freqMHz float64, ble bool) (*Packet, error) {
	syn := s.br
	if ble {
		syn = s.quality
	}
	res, err := syn.Synthesize(airBits, freqMHz)
	if err != nil {
		return nil, err
	}
	return s.wrap(res, -1)
}

// Device mirrors the Bluetooth addressing context (LAP for the access
// code, UAP for HEC/CRC seeding).
type Device struct {
	LAP uint32
	UAP byte
}

// PacketType enumerates BR/EDR ACL baseband packet types. The zero value
// is invalid so option structs can detect "not set".
type PacketType int

// Baseband packet types: DM variants carry the 2/3-rate FEC.
const (
	DM1 = PacketType(bt.DM1) + 1
	DH1 = PacketType(bt.DH1) + 1
	DM3 = PacketType(bt.DM3) + 1
	DH3 = PacketType(bt.DH3) + 1
	DM5 = PacketType(bt.DM5) + 1
	DH5 = PacketType(bt.DH5) + 1
)

// inner converts to the baseband type, validating the value.
func (p PacketType) inner() (bt.PacketType, error) {
	if p < DM1 || p > DH5 {
		return 0, fmt.Errorf("bluefi: invalid packet type %d", int(p))
	}
	return bt.PacketType(p - 1), nil
}

// BasebandPacket describes one BR/EDR packet to synthesize.
type BasebandPacket struct {
	Type    PacketType
	LTAddr  byte
	Flow    byte
	ARQN    byte
	SEQN    byte
	LLID    byte
	Payload []byte
	Clock   uint32
}

// EDRType identifies the EDR 2-DH/3-DH ACL packet types (π/4-DQPSK at
// 2 Mb/s, 8DPSK at 3 Mb/s). The zero value is invalid so option structs
// can detect "not set".
type EDRType int

// EDR ACL packet types.
const (
	EDR2DH1 = EDRType(bt.EDR2DH1) + 1
	EDR2DH3 = EDRType(bt.EDR2DH3) + 1
	EDR2DH5 = EDRType(bt.EDR2DH5) + 1
	EDR3DH1 = EDRType(bt.EDR3DH1) + 1
	EDR3DH3 = EDRType(bt.EDR3DH3) + 1
	EDR3DH5 = EDRType(bt.EDR3DH5) + 1
)

// inner converts to the baseband EDR type, validating the value.
func (t EDRType) inner() (bt.EDRPacketType, error) {
	if t < EDR2DH1 || t > EDR3DH5 {
		return 0, fmt.Errorf("bluefi: invalid EDR packet type %d", int(t))
	}
	return bt.EDRPacketType(t - 1), nil
}

// EDRBasebandPacket describes one EDR packet to synthesize: GFSK access
// code and header at 1 Mb/s, DPSK payload at 2 or 3 Mb/s.
type EDRBasebandPacket struct {
	Type    EDRType
	LTAddr  byte
	Flow    byte
	ARQN    byte
	SEQN    byte
	LLID    byte
	Payload []byte
	Clock   uint32
}

// EDRPacket synthesizes an EDR baseband packet on a Bluetooth channel
// through the phase-trajectory entry point (§5.3). The GFSK access code
// and header decode through a COTS receiver like any BR packet; the
// DPSK payload survives every synthesis stage except the chip's cyclic-
// prefix insertion, so end-to-end payload recovery needs a CP-tolerant
// receiver (see DESIGN.md §10).
func (s *Synthesizer) EDRPacket(dev Device, pkt *EDRBasebandPacket, btChannel int) (*Packet, error) {
	if btChannel < 0 || btChannel >= bt.NumChannels {
		return nil, fmt.Errorf("bluefi: Bluetooth channel %d out of range", btChannel)
	}
	et, err := pkt.Type.inner()
	if err != nil {
		return nil, err
	}
	inner := &bt.EDRPacket{
		Type:    et,
		LTAddr:  pkt.LTAddr,
		Flow:    pkt.Flow,
		ARQN:    pkt.ARQN,
		SEQN:    pkt.SEQN,
		Payload: pkt.Payload,
		Clock:   pkt.Clock,
		LLID:    pkt.LLID,
	}
	theta, _, err := inner.AirPhase(bt.Device(dev), 20)
	if err != nil {
		return nil, err
	}
	res, err := s.br.SynthesizePhase(theta, bt.ChannelMHz(btChannel))
	if err != nil {
		return nil, err
	}
	return s.wrap(res, -1)
}

// IBeacon re-exports the iBeacon payload builder.
type IBeacon = beacon.IBeacon

// EddystoneUID re-exports the Eddystone-UID payload builder.
type EddystoneUID = beacon.EddystoneUID

// EddystoneURL re-exports the Eddystone-URL payload builder.
type EddystoneURL = beacon.EddystoneURL

// AltBeacon re-exports the AltBeacon payload builder.
type AltBeacon = beacon.AltBeacon

// ChannelPlan scores a WiFi channel as a carrier for a Bluetooth
// frequency (paper §2.6).
type ChannelPlan = core.ChannelPlan

// Timings breaks down where one packet's synthesis time went (§4.8).
type Timings = core.Timings

// Timings returns the packet's per-stage synthesis timing breakdown.
// With Options.Telemetry attached, the same durations also populate the
// bluefi_core_stage_seconds histograms, so the two views always agree.
func (p *Packet) Timings() Timings { return p.res.Timings }

// Waveform returns a copy of the predicted over-the-air IQ waveform at
// 20 Msps, centered on the WiFi channel — what an SDR capturing the
// frame would record before noise. External receive rigs feed it
// through a channel model into a scanner.
func (p *Packet) Waveform() []complex128 {
	out := make([]complex128, len(p.res.Waveform))
	copy(out, p.res.Waveform)
	return out
}

// ChannelOffsetHz returns the Bluetooth carrier's offset from the WiFi
// channel center — the tuning offset a receiver needs to demodulate the
// packet from the Waveform stream.
func (p *Packet) ChannelOffsetHz() float64 { return p.res.Plan.OffsetHz }

// Plan lists the WiFi channels able to carry a Bluetooth frequency,
// best (farthest from pilots and nulls) first.
func Plan(btMHz float64) []ChannelPlan { return core.PlanChannels(btMHz) }

// SimulationParams describes the simulated radio link for Simulate.
type SimulationParams struct {
	// TxPowerDBm defaults to the chip's stock power when zero.
	TxPowerDBm float64
	// DistanceM defaults to 1.5 m when zero.
	DistanceM float64
	// Receiver names a device profile: "Pixel" (default), "S6",
	// "iPhone" or "FTS4BT".
	Receiver string
	// Seed makes the channel noise reproducible.
	Seed int64
}

// SimReport is the outcome of a simulated reception.
type SimReport struct {
	Detected bool
	Decoded  bool
	RSSIdBm  float64
}

// Simulate transmits a synthesized packet through the simulated radio
// channel into a simulated unmodified Bluetooth receiver — the library's
// stand-in for the paper's over-the-air tests.
func (s *Synthesizer) Simulate(pkt *Packet, params SimulationParams) (SimReport, error) {
	if params.TxPowerDBm == 0 {
		params.TxPowerDBm = s.chip.Model().DefaultTxPowerDBm
	}
	if params.DistanceM == 0 {
		params.DistanceM = 1.5
	}
	prof := btrx.Pixel
	switch params.Receiver {
	case "", "Pixel":
	case "S6":
		prof = btrx.S6
	case "iPhone":
		prof = btrx.IPhone
	case "FTS4BT":
		prof = btrx.Sniffer
	default:
		return SimReport{}, fmt.Errorf("bluefi: unknown receiver profile %q", params.Receiver)
	}
	ch := channel.Default(params.TxPowerDBm, params.DistanceM)
	if params.Seed != 0 {
		ch.Seed = params.Seed
	}
	rx, err := ch.Apply(pkt.res.Waveform)
	if err != nil {
		return SimReport{}, err
	}
	rcv, err := btrx.NewReceiver(prof, pkt.res.Plan.OffsetHz, bt.Device{})
	if err != nil {
		return SimReport{}, err
	}
	if pkt.BLEChannel < 0 {
		return SimReport{}, fmt.Errorf("bluefi: Simulate currently supports BLE packets; use SimulateBR for BR/EDR")
	}
	rep, err := rcv.ReceiveBLE(rx, pkt.BLEChannel)
	if err != nil {
		return SimReport{}, err
	}
	return SimReport{Detected: rep.Detected, Decoded: rep.Detected && rep.Result.OK, RSSIdBm: rep.RSSIdBm}, nil
}

// SimulateBR mirrors Simulate for classic BR/EDR packets; dev and clk
// must match the synthesized packet.
func (s *Synthesizer) SimulateBR(pkt *Packet, dev Device, clk uint32, params SimulationParams) (SimReport, error) {
	if params.TxPowerDBm == 0 {
		params.TxPowerDBm = s.chip.Model().DefaultTxPowerDBm
	}
	if params.DistanceM == 0 {
		params.DistanceM = 1.5
	}
	prof := btrx.Sniffer
	switch params.Receiver {
	case "", "FTS4BT":
	case "Pixel":
		prof = btrx.Pixel
	case "S6":
		prof = btrx.S6
	case "iPhone":
		prof = btrx.IPhone
	default:
		return SimReport{}, fmt.Errorf("bluefi: unknown receiver profile %q", params.Receiver)
	}
	ch := channel.Default(params.TxPowerDBm, params.DistanceM)
	if params.Seed != 0 {
		ch.Seed = params.Seed
	}
	rx, err := ch.Apply(pkt.res.Waveform)
	if err != nil {
		return SimReport{}, err
	}
	rcv, err := btrx.NewReceiver(prof, pkt.res.Plan.OffsetHz, bt.Device(dev))
	if err != nil {
		return SimReport{}, err
	}
	rep, err := rcv.ReceiveBR(rx, clk)
	if err != nil {
		return SimReport{}, err
	}
	return SimReport{Detected: rep.Detected, Decoded: rep.Detected && rep.Result.OK, RSSIdBm: rep.RSSIdBm}, nil
}
