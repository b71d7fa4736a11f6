package trainer

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/horovod"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// ElasticConfig drives a fault-tolerant data-parallel training run: every
// rank steps a Session, and all of them Save the full training state
// (parameters, Adam moments, the per-rank loader RNG streams; rank 0
// writes it atomically) every CheckpointEvery steps. When a rank dies
// mid-run the surviving ranks rebuild a smaller world from the last
// checkpoint, re-shard the data, rescale the learning rate, and continue.
type ElasticConfig struct {
	// Train is the per-rank training configuration (model, data, steps,
	// base LR — scaled by the live world size, per the Horovod rule).
	Train Config
	// WorldSize is the initial number of data-parallel ranks.
	WorldSize int
	// CheckpointPath is where the training state lives. Empty disables
	// checkpointing (and therefore restart).
	CheckpointPath string
	// CheckpointEvery writes a checkpoint after every K steps (0 keeps
	// only the final state, written when the run completes).
	CheckpointEvery int
	// RecvTimeout is the failure-detection deadline: a rank silent for
	// this long is declared dead. 0 disables deadline detection (crashes
	// inside the process are still detected through panic recovery).
	RecvTimeout time.Duration
	// Fault is the injection schedule for the first attempt; restarts
	// always run fault-free. Zero value injects nothing (see
	// mpi.NoFaults; the rank -1 convention is normalized here).
	Fault mpi.FaultPlan
	// MaxRestarts bounds how many elastic restarts are attempted before
	// the run gives up and reports the failure.
	MaxRestarts int
	// FusionThresholdBytes is passed to the Horovod engine; -1 disables
	// fusion, which makes runs bitwise deterministic (fusion grouping
	// depends on readiness timing and changes fp summation order).
	FusionThresholdBytes int64
}

// AttemptStats describes one world's portion of an elastic run.
type AttemptStats struct {
	WorldSize int
	StartStep int
	EndStep   int
	AvgLoss   float64
	FinalLoss float64
	Err       string

	// survivors is the rank count available for the next restart.
	survivors int
}

// ElasticStats summarizes a completed elastic run.
type ElasticStats struct {
	Restarts int
	Attempts []AttemptStats
}

// TrainElastic runs fault-tolerant data-parallel training. On a clean
// run it is TrainDistributed plus periodic checkpoints; when ranks die
// it restarts from the last checkpoint with the survivors, up to
// MaxRestarts times. If CheckpointPath already holds a checkpoint the
// run resumes from it — with the same world size the continuation is
// bit-identical to a run that never stopped.
func TrainElastic(cfg ElasticConfig) (*models.EDSR, ElasticStats, error) {
	var stats ElasticStats
	if cfg.WorldSize < 1 {
		return nil, stats, fmt.Errorf("trainer: elastic world size %d", cfg.WorldSize)
	}
	if cfg.Train.Steps < 1 || cfg.Train.BatchSize < 1 {
		return nil, stats, fmt.Errorf("trainer: invalid config: steps=%d batch=%d", cfg.Train.Steps, cfg.Train.BatchSize)
	}
	if cfg.Train.Metrics == nil {
		cfg.Train.Metrics = noMetrics
	}
	ws := cfg.WorldSize
	fault := normalizeFault(cfg.Fault)
	for {
		out, attempt, runErr := runAttempt(cfg, ws, fault)
		stats.Attempts = append(stats.Attempts, attempt)
		if runErr == nil {
			return out.model, stats, nil
		}
		if cfg.CheckpointPath == "" {
			return nil, stats, fmt.Errorf("trainer: rank failure without a checkpoint to restart from: %w", runErr)
		}
		if stats.Restarts >= cfg.MaxRestarts {
			return nil, stats, fmt.Errorf("trainer: giving up after %d restart(s): %w", stats.Restarts, runErr)
		}
		survivors := attempt.survivors
		if survivors < 1 {
			return nil, stats, fmt.Errorf("trainer: no survivors to restart with: %w", runErr)
		}
		if cfg.Train.Log != nil {
			// errors.Join output is one line per failed rank; the first
			// line carries the root cause.
			cause, _, _ := strings.Cut(runErr.Error(), "\n")
			fmt.Fprintf(cfg.Train.Log, "elastic: %s; restarting with %d rank(s) from %s\n",
				cause, survivors, cfg.CheckpointPath)
		}
		// Mark the restart boundary on rank 0's timeline and in the live
		// metrics so a trace of a recovered run shows where the old world
		// ended and the shrunken one began.
		cfg.Train.Trace.Recorder(0).EmitInstant(trace.CatRestart, trace.TrackMain, 0)
		cfg.Train.Metrics.Restarts.Inc()
		cfg.Train.Metrics.FailedRanks.Add(int64(ws - survivors))
		ws = survivors
		fault = mpi.NoFaults() // the injected fault fired; restarts run clean
		stats.Restarts++
	}
}

func normalizeFault(p mpi.FaultPlan) mpi.FaultPlan {
	// The zero value of FaultPlan targets rank 0 everywhere; treat "all
	// zero" as "no faults" so callers need not know the -1 convention.
	if p == (mpi.FaultPlan{}) {
		return mpi.NoFaults()
	}
	return p
}

// runAttempt executes one world until the configured step count or the
// first failure, and returns rank 0's progress. It resumes from
// CheckpointPath when that file exists. This is the one place a training
// world is set up: TrainDistributed is a single attempt with no
// checkpoint path.
func runAttempt(cfg ElasticConfig, ws int, fault mpi.FaultPlan) (rankProgress, AttemptStats, error) {
	at := AttemptStats{WorldSize: ws}
	var st *trainState
	if cfg.CheckpointPath != "" {
		loaded, err := readFullState(cfg.CheckpointPath)
		switch {
		case err == nil:
			st = loaded
			at.StartStep = st.Step
		case !errors.Is(err, os.ErrNotExist):
			return rankProgress{}, at, err
		}
	}
	if st != nil && st.Step >= cfg.Train.Steps {
		// Nothing left to do; rebuild rank 0's model from the checkpoint.
		model, err := edsrFromState(cfg.Train, st)
		at.EndStep = at.StartStep
		return rankProgress{model: model}, at, err
	}

	world := mpi.NewWorld(ws)
	world.SetRecvTimeout(cfg.RecvTimeout)
	world.SetFaultPlan(fault)
	if cfg.Train.GPUsPerNode > 0 {
		world.SetGPUsPerNode(cfg.Train.GPUsPerNode)
	}

	outs := make([]rankProgress, ws)
	err := world.Run(func(c *mpi.Comm) {
		o := &outs[c.Rank()]
		o.err = trainRank(cfg, c, st, o)
	})
	at.survivors = len(world.Survivors())
	// A failed attempt still reports how far rank 0 got and what the loss
	// looked like.
	at.EndStep = at.StartStep
	if s := outs[0].s; s != nil && s.ran > 0 {
		at.AvgLoss = s.lossSum / float64(s.ran)
		at.FinalLoss = s.lastLoss
		at.EndStep += s.ran
	}
	for r := 0; err == nil && r < ws; r++ {
		if outs[r].err != nil {
			err = fmt.Errorf("rank %d: %w", r, outs[r].err)
		}
	}
	if err != nil {
		at.Err = err.Error()
	}
	return outs[0], at, err
}

// rankProgress is what one rank's run leaves behind. The driver owns it
// and trainRank fills model and s in place, so a rank that panics
// mid-step (a panic unwinds past any return value) still reports its
// Session's running totals.
type rankProgress struct {
	model *models.EDSR
	s     *Session
	err   error
}

// trainRank is one rank's whole EDSR run: build a Session (restored from
// st when resuming), synchronise the replicas, and step it to
// cfg.Train.Steps, saving the training state at every checkpoint
// boundary. c is nil for single-process training.
func trainRank(cfg ElasticConfig, c *mpi.Comm, st *trainState, out *rankProgress) error {
	tcfg := cfg.Train
	if tcfg.Steps < 1 {
		return fmt.Errorf("trainer: invalid config: steps=%d", tcfg.Steps)
	}
	out.model = newEDSR(tcfg)
	s, err := newSession(tcfg, out.model, identity, c, cfg.FusionThresholdBytes, st)
	if err != nil {
		return err
	}
	out.s = s
	defer s.close()
	if c != nil {
		horovod.BroadcastParameters(c, out.model.Params(), 0)
	}
	for s.Step < tcfg.Steps {
		n := tcfg.Steps - s.Step
		if k := cfg.CheckpointEvery; cfg.CheckpointPath != "" && k > 0 {
			n = min(n, k-s.Step%k)
		}
		if _, err := s.RunSteps(n); err != nil {
			return err
		}
		if cfg.CheckpointPath != "" {
			if err := s.Save(cfg.CheckpointPath); err != nil {
				return err
			}
		}
	}
	if c != nil {
		// Stop the engine first — its loop records negotiation spans
		// until every rank has voted to shut down — then merge every
		// rank's spans on rank 0 while the world is still healthy;
		// failed attempts skip this (the trace keeps what rank 0
		// recorded locally).
		s.close()
		tcfg.Trace.Gather(c, 0)
	}
	return nil
}
