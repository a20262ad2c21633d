// Command koala-vqe runs the variational quantum eigensolver simulation
// of paper section II-D2 on the transverse-field Ising model.
//
// Usage:
//
//	koala-vqe -rows 3 -cols 3 -layers 2 -r 2 -iters 50
//
// Long optimizations can write crash-safe checkpoints per restart round
// (-checkpoint vqe.ckpt) and continue after a crash with -resume; the
// resumed run is bit-identical to an uninterrupted one.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"gokoala/internal/backend"
	"gokoala/internal/checkpoint"
	"gokoala/internal/cliutil"
	"gokoala/internal/quantum"
	"gokoala/internal/statevector"
	"gokoala/internal/vqe"
)

func main() {
	rows := flag.Int("rows", 3, "lattice rows")
	cols := flag.Int("cols", 3, "lattice columns")
	layers := flag.Int("layers", 2, "ansatz layers")
	r := flag.Int("r", 2, "PEPS bond dimension (0 = exact state vector)")
	iters := flag.Int("iters", 50, "optimizer iterations per restart round")
	restarts := flag.Int("restarts", 6, "Nelder-Mead restart rounds")
	seed := cliutil.SeedFlag(1)
	jz := flag.Float64("jz", -1, "Ising coupling")
	hx := flag.Float64("hx", -3.5, "transverse field")
	healthFlag := cliutil.HealthFlag()
	ck := cliutil.CheckpointFlags("rounds")
	oc := cliutil.ObsFlags()
	workers := cliutil.WorkersFlag()
	listen := cliutil.ListenFlag()
	flag.Parse()
	cliutil.ApplyWorkers(*workers)
	if err := cliutil.ApplyHealth(*healthFlag); err != nil {
		log.Fatal(err)
	}
	if err := ck.Validate(); err != nil {
		log.Fatal(err)
	}
	if _, err := oc.Setup(); err != nil {
		log.Fatal(err)
	}
	tel, err := cliutil.StartTelemetry(*listen, "vqe", map[string]string{
		"rows": fmt.Sprint(*rows), "cols": fmt.Sprint(*cols), "layers": fmt.Sprint(*layers),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer tel.Close()
	cliutil.HandleSignals(true, func() {
		_ = oc.Finish(nil)
		_ = tel.Close()
	})

	obs := quantum.TransverseFieldIsing(*rows, *cols, *jz, *hx)
	n := (*rows) * (*cols)
	if n <= 16 {
		e, _ := statevector.GroundState(obs, n, rand.New(rand.NewSource(*seed)))
		fmt.Printf("exact ground state energy per site: %.5f\n", e/float64(n))
	}

	var from *checkpoint.VQECheckpoint
	if *ck.Resume {
		cp, err := checkpoint.LoadVQE(*ck.Path)
		switch {
		case err == nil:
			from = cp
			fmt.Printf("resuming from %s at round %d\n", *ck.Path, cp.Round)
		case checkpoint.IsNotExist(err):
			fmt.Printf("no checkpoint at %s, starting fresh\n", *ck.Path)
		default:
			log.Fatal(err)
		}
	}
	var afterRound func(int)
	if *ck.DieAfter > 0 {
		die := *ck.DieAfter
		afterRound = func(round int) {
			if round >= die {
				fmt.Printf("injected crash after round %d\n", round)
				os.Exit(3)
			}
		}
	}

	a := vqe.Ansatz{Rows: *rows, Cols: *cols, Layers: *layers}
	res := vqe.Run(a, obs, vqe.Options{
		Rank:            *r,
		MaxIter:         *iters,
		Restarts:        *restarts,
		Seed:            *seed,
		Engine:          backend.Instrument(backend.NewDense()),
		UseCache:        true,
		CheckpointPath:  *ck.Path,
		CheckpointEvery: *ck.Every,
		From:            from,
		AfterRound:      afterRound,
		Stop:            cliutil.StopRequested,
	})
	if cliutil.StopRequested() {
		fmt.Println("interrupted: stopped gracefully after the current round")
	}
	label := fmt.Sprintf("peps r=%d", *r)
	if *r <= 0 {
		label = "state vector"
	}
	fmt.Printf("VQE (%s, %d params): best energy per site %.5f after %d evaluations\n",
		label, a.NumParams(), res.EnergyPerSite, res.Evals)
	for i, e := range res.History {
		if (i+1)%5 == 0 || i == len(res.History)-1 {
			fmt.Printf("iter %3d  best %.5f\n", i+1, e)
		}
	}
	cliutil.WriteHealthCounters(os.Stdout)
	if err := oc.Finish(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
