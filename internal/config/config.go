// Package config serializes experiment configurations as human-editable
// JSON: durations are written as Go duration strings ("30s", "100ms")
// rather than nanosecond integers, and every field maps one-to-one onto
// cluster.Config. It backs the CLI tools' -config-file flags.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"millibalance/internal/cluster"
	"millibalance/internal/netmodel"
	"millibalance/internal/resource"
	"millibalance/internal/workload"
)

// Duration marshals as a Go duration string.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler, accepting both duration
// strings and plain nanosecond numbers.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var asString string
	if err := json.Unmarshal(data, &asString); err == nil {
		parsed, err := time.ParseDuration(asString)
		if err != nil {
			return fmt.Errorf("config: bad duration %q: %w", asString, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var asInt int64
	if err := json.Unmarshal(data, &asInt); err != nil {
		return fmt.Errorf("config: duration must be a string like \"100ms\" or nanoseconds: %s", data)
	}
	*d = Duration(asInt)
	return nil
}

// Writeback mirrors resource.WritebackConfig.
type Writeback struct {
	Interval        Duration `json:"interval"`
	Phase           Duration `json:"phase,omitempty"`
	DirtyThreshold  int64    `json:"dirty_threshold,omitempty"`
	DiskWriteRate   float64  `json:"disk_write_rate"`
	MaxStall        Duration `json:"max_stall,omitempty"`
	SlowFlushProb   float64  `json:"slow_flush_prob,omitempty"`
	SlowFlushFactor float64  `json:"slow_flush_factor,omitempty"`
}

func (w Writeback) toResource() resource.WritebackConfig {
	return resource.WritebackConfig{
		Interval:        time.Duration(w.Interval),
		Phase:           time.Duration(w.Phase),
		DirtyThreshold:  w.DirtyThreshold,
		Disk:            resource.Disk{WriteRate: w.DiskWriteRate},
		MaxStall:        time.Duration(w.MaxStall),
		SlowFlushProb:   w.SlowFlushProb,
		SlowFlushFactor: w.SlowFlushFactor,
	}
}

func writebackFrom(w resource.WritebackConfig) Writeback {
	return Writeback{
		Interval:        Duration(w.Interval),
		Phase:           Duration(w.Phase),
		DirtyThreshold:  w.DirtyThreshold,
		DiskWriteRate:   w.Disk.WriteRate,
		MaxStall:        Duration(w.MaxStall),
		SlowFlushProb:   w.SlowFlushProb,
		SlowFlushFactor: w.SlowFlushFactor,
	}
}

// Burst mirrors workload.BurstConfig.
type Burst struct {
	Period    Duration `json:"period"`
	DutyCycle float64  `json:"duty_cycle"`
	Factor    float64  `json:"factor"`
}

// Balancer mirrors lb.Config.
type Balancer struct {
	BusyRecovery     Duration `json:"busy_recovery,omitempty"`
	ErrorThreshold   int      `json:"error_threshold,omitempty"`
	ErrorAfter       Duration `json:"error_after,omitempty"`
	ErrorRecovery    Duration `json:"error_recovery,omitempty"`
	Sweeps           int      `json:"sweeps,omitempty"`
	SweepPause       Duration `json:"sweep_pause,omitempty"`
	MaintainInterval Duration `json:"maintain_interval,omitempty"`
	StickySessions   bool     `json:"sticky_sessions,omitempty"`
}

// Experiment is the JSON shape of cluster.Config.
type Experiment struct {
	Seed1      uint64   `json:"seed1,omitempty"`
	Seed2      uint64   `json:"seed2,omitempty"`
	Duration   Duration `json:"duration"`
	Clients    int      `json:"clients"`
	ThinkTime  Duration `json:"think_time"`
	BrowseOnly bool     `json:"browse_only,omitempty"`
	Burst      *Burst   `json:"burst,omitempty"`
	// OpenLoopRate switches to Poisson arrivals at this rate (req/s).
	OpenLoopRate float64 `json:"open_loop_rate,omitempty"`

	NumWeb    int      `json:"num_web"`
	NumApp    int      `json:"num_app"`
	Policy    string   `json:"policy"`
	Mechanism string   `json:"mechanism"`
	LB        Balancer `json:"lb,omitempty"`

	WebCores     int       `json:"web_cores"`
	WebWorkers   int       `json:"web_workers"`
	WebBacklog   int       `json:"web_backlog"`
	ConnPoolSize int       `json:"conn_pool_size"`
	WebLogBytes  int64     `json:"web_log_bytes,omitempty"`
	WebWriteback Writeback `json:"web_writeback"`

	AppCores     int       `json:"app_cores"`
	AppWorkers   int       `json:"app_workers"`
	DBConns      int       `json:"db_conns"`
	AppWriteback Writeback `json:"app_writeback"`

	DBCores   int `json:"db_cores"`
	DBWorkers int `json:"db_workers"`

	LinkLatency    Duration   `json:"link_latency,omitempty"`
	Retransmit     []Duration `json:"retransmit,omitempty"`
	SampleInterval Duration   `json:"sample_interval,omitempty"`
	TraceCapacity  int        `json:"trace_capacity,omitempty"`
}

// ToCluster converts to a cluster.Config (not yet validated).
func (e Experiment) ToCluster() cluster.Config {
	cfg := cluster.Config{
		Seed1:      e.Seed1,
		Seed2:      e.Seed2,
		Duration:   time.Duration(e.Duration),
		Clients:    e.Clients,
		ThinkTime:  time.Duration(e.ThinkTime),
		BrowseOnly: e.BrowseOnly,

		OpenLoopRate: e.OpenLoopRate,

		NumWeb:    e.NumWeb,
		NumApp:    e.NumApp,
		Policy:    e.Policy,
		Mechanism: e.Mechanism,

		WebCores:     e.WebCores,
		WebWorkers:   e.WebWorkers,
		WebBacklog:   e.WebBacklog,
		ConnPoolSize: e.ConnPoolSize,
		WebLogBytes:  e.WebLogBytes,
		WebWriteback: e.WebWriteback.toResource(),

		AppCores:     e.AppCores,
		AppWorkers:   e.AppWorkers,
		DBConns:      e.DBConns,
		AppWriteback: e.AppWriteback.toResource(),

		DBCores:   e.DBCores,
		DBWorkers: e.DBWorkers,

		LinkLatency:    time.Duration(e.LinkLatency),
		SampleInterval: time.Duration(e.SampleInterval),
		TraceCapacity:  e.TraceCapacity,
	}
	cfg.LB.BusyRecovery = time.Duration(e.LB.BusyRecovery)
	cfg.LB.ErrorThreshold = e.LB.ErrorThreshold
	cfg.LB.ErrorAfter = time.Duration(e.LB.ErrorAfter)
	cfg.LB.ErrorRecovery = time.Duration(e.LB.ErrorRecovery)
	cfg.LB.Sweeps = e.LB.Sweeps
	cfg.LB.SweepPause = time.Duration(e.LB.SweepPause)
	cfg.LB.MaintainInterval = time.Duration(e.LB.MaintainInterval)
	cfg.LB.StickySessions = e.LB.StickySessions
	if e.Burst != nil {
		cfg.Burst = &workload.BurstConfig{
			Period:    time.Duration(e.Burst.Period),
			DutyCycle: e.Burst.DutyCycle,
			Factor:    e.Burst.Factor,
		}
	}
	if len(e.Retransmit) > 0 {
		sched := make(netmodel.RetransmitSchedule, len(e.Retransmit))
		for i, d := range e.Retransmit {
			sched[i] = time.Duration(d)
		}
		cfg.Retransmit = sched
	}
	return cfg
}

// FromCluster converts a cluster.Config to its JSON shape.
func FromCluster(cfg cluster.Config) Experiment {
	e := Experiment{
		Seed1:      cfg.Seed1,
		Seed2:      cfg.Seed2,
		Duration:   Duration(cfg.Duration),
		Clients:    cfg.Clients,
		ThinkTime:  Duration(cfg.ThinkTime),
		BrowseOnly: cfg.BrowseOnly,

		OpenLoopRate: cfg.OpenLoopRate,

		NumWeb:    cfg.NumWeb,
		NumApp:    cfg.NumApp,
		Policy:    cfg.Policy,
		Mechanism: cfg.Mechanism,

		WebCores:     cfg.WebCores,
		WebWorkers:   cfg.WebWorkers,
		WebBacklog:   cfg.WebBacklog,
		ConnPoolSize: cfg.ConnPoolSize,
		WebLogBytes:  cfg.WebLogBytes,
		WebWriteback: writebackFrom(cfg.WebWriteback),

		AppCores:     cfg.AppCores,
		AppWorkers:   cfg.AppWorkers,
		DBConns:      cfg.DBConns,
		AppWriteback: writebackFrom(cfg.AppWriteback),

		DBCores:   cfg.DBCores,
		DBWorkers: cfg.DBWorkers,

		LinkLatency:    Duration(cfg.LinkLatency),
		SampleInterval: Duration(cfg.SampleInterval),
		TraceCapacity:  cfg.TraceCapacity,
	}
	e.LB = Balancer{
		BusyRecovery:     Duration(cfg.LB.BusyRecovery),
		ErrorThreshold:   cfg.LB.ErrorThreshold,
		ErrorAfter:       Duration(cfg.LB.ErrorAfter),
		ErrorRecovery:    Duration(cfg.LB.ErrorRecovery),
		Sweeps:           cfg.LB.Sweeps,
		SweepPause:       Duration(cfg.LB.SweepPause),
		MaintainInterval: Duration(cfg.LB.MaintainInterval),
		StickySessions:   cfg.LB.StickySessions,
	}
	if cfg.Burst != nil {
		e.Burst = &Burst{
			Period:    Duration(cfg.Burst.Period),
			DutyCycle: cfg.Burst.DutyCycle,
			Factor:    cfg.Burst.Factor,
		}
	}
	for _, d := range cfg.Retransmit {
		e.Retransmit = append(e.Retransmit, Duration(d))
	}
	return e
}

// Load reads a JSON experiment, converts it and validates the result.
func Load(r io.Reader) (cluster.Config, error) {
	var e Experiment
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return cluster.Config{}, fmt.Errorf("config: decode: %w", err)
	}
	cfg := e.ToCluster()
	if err := cfg.Validate(); err != nil {
		return cluster.Config{}, err
	}
	return cfg, nil
}

// Save writes the config as indented JSON.
func Save(w io.Writer, cfg cluster.Config) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(FromCluster(cfg)); err != nil {
		return fmt.Errorf("config: encode: %w", err)
	}
	return nil
}
