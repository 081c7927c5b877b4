package datacell

import "time"

// Option configures an Engine at construction time (New). Options are the
// one way to configure an engine from Go; at run time the SQL pragmas
// (`set strategy = …`, `set parallelism = …`) reconfigure it. Both route
// through the same internal setter per setting, so an engine built with
// options is indistinguishable from one reconfigured by pragmas; the
// equivalence is differential-tested across strategy × parallelism × WAL.
type Option func(*Engine) error

// WithStrategy selects the multi-query sharing strategy (Figures 2a–2c):
// StrategySeparate, StrategyShared or StrategyPartial. Pragma:
// `set strategy = '…'`.
func WithStrategy(s Strategy) Option {
	return func(e *Engine) error { return e.setStrategy(s) }
}

// WithParallelism fixes the stream partition count for partitionable
// queries. Pragma: `set parallelism = N`.
func WithParallelism(p int) Option {
	return func(e *Engine) error { return e.setParallelism(p) }
}

// WithParallelismAuto hands the partition count to the adaptive load
// controller. Pragma: `set parallelism = auto`.
func WithParallelismAuto() Option {
	return func(e *Engine) error { return e.setParallelismAuto() }
}

// WithAdaptOptions tunes the adaptive-parallelism controller.
func WithAdaptOptions(o AdaptOptions) Option {
	return func(e *Engine) error { e.setAdaptOptions(o); return nil }
}

// WithClock replaces the engine clock (now(), arrival timestamps, emit
// timestamps) for simulated-time runs and deterministic tests.
func WithClock(now func() time.Time) Option {
	return func(e *Engine) error { e.cat.SetClock(now); return nil }
}

// WithWAL attaches a write-ahead log rooted at dir with default tuning.
func WithWAL(dir string) Option {
	return WithWALOptions(WALOptions{Dir: dir})
}

// WithWALOptions attaches a write-ahead log with explicit tuning.
func WithWALOptions(o WALOptions) Option {
	return func(e *Engine) error { return e.openWAL(o) }
}
