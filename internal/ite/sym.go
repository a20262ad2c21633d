package ite

import (
	"math/rand"

	"gokoala/internal/checkpoint"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/health"
	"gokoala/internal/obs"
	"gokoala/internal/peps"
	"gokoala/internal/quantum"
	"gokoala/internal/telemetry"
)

// EvolveSym runs imaginary time evolution on a block-sparse symmetric
// state. The whole gate list is charge-checked up front: if every
// Trotter gate conserves the state's charge, the evolution stays block-
// sparse end to end (updates contract and factor sector by sector);
// otherwise the state is embedded to dense once and the run continues
// through the ordinary Evolve, reported via Result.FellBack — per-gate
// projection would silently discard amplitude, so fallback is all or
// nothing. Energies are measured by embedding the current state to
// dense and reusing the existing expectation machinery, with the same
// (Seed, step) reseeding discipline, so measured values are directly
// comparable with a dense run of the same schedule. The evolution is
// strictly sequential over gates and therefore bit-identical at any
// worker count.
func EvolveSym(state *peps.SymPEPS, ham *quantum.Observable, opts Options) Result {
	if opts.MeasureEvery <= 0 {
		opts.MeasureEvery = 1
	}
	if opts.WeightedUpdate {
		panic("ite: the weighted simple update does not support the block-sparse backend")
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 1
	}
	var res Result
	start := 1
	if opts.From != nil {
		cp := opts.From
		if cp.SymState == nil {
			// The interrupted run had fallen back to dense (or predates the
			// symmetric format): resume it on the dense path.
			res := Evolve(nil, ham, opts)
			res.FellBack = true
			return res
		}
		state = cp.SymState
		opts.Seed = cp.Seed
		start = cp.Step + 1
		res.Energies = append(res.Energies, cp.Energies...)
		res.MeasuredAt = append(res.MeasuredAt, cp.MeasuredAt...)
	}
	var gates []quantum.TrotterGate
	if opts.SecondOrder {
		gates = ham.TrotterGatesSecondOrder(complex(-opts.Tau, 0))
	} else {
		gates = ham.TrotterGates(complex(-opts.Tau, 0))
	}
	symGates, ok := peps.SymTrotterGates(gates, state.Mod())
	if !ok {
		// Non-conserving circuit: embed once and run the dense evolution
		// with unchanged options (including checkpointing, which then
		// writes ordinary dense records).
		health.CountSymFallback()
		r := Evolve(state.ToDense(), ham, opts)
		r.FellBack = true
		return r
	}
	strategy := opts.Strategy
	if strategy == nil {
		strategy = einsumsvd.ImplicitRand{Rng: rand.New(rand.NewSource(opts.Seed + 1))}
	}
	upd := peps.SymUpdateOptions{Rank: opts.EvolutionRank, Normalize: true}
	for step := start; step <= opts.Steps; step++ {
		state.ApplyCircuit(symGates, upd)
		stopping := opts.Stop != nil && opts.Stop()
		measuredNow := false
		if step%opts.MeasureEvery == 0 || step == opts.Steps || stopping {
			st := einsumsvd.Reseed(strategy, stepSeed(opts.Seed, step))
			e := state.ToDense().EnergyPerSite(ham, peps.ExpectationOptions{
				M:        opts.ContractionRank,
				Strategy: st,
				UseCache: opts.UseCache,
			})
			health.CheckFloat("ite.energy", e)
			res.Energies = append(res.Energies, e)
			res.MeasuredAt = append(res.MeasuredAt, step)
			measuredNow = true
		}
		if obs.Enabled() {
			stored := state.StateBytes()
			denseEquiv := state.DenseEquivBytes()
			fields := map[string]float64{
				"step":              float64(step),
				"steps_total":       float64(opts.Steps),
				"max_bond":          float64(state.MaxBond()),
				"state_bytes":       float64(stored),
				"dense_equiv_bytes": float64(denseEquiv),
				"blocks":            float64(state.NumBlocks()),
			}
			if measuredNow {
				e := res.Energies[len(res.Energies)-1]
				fields["energy_per_site"] = e
				obs.Observe("ite.energy_per_site", e)
			}
			obs.Observe("ite.step", float64(step))
			obs.Observe("peps.sym.state_bytes", float64(stored))
			obs.Observe("peps.sym.dense_equiv_bytes", float64(denseEquiv))
			telemetry.Publish("ite.step", step, fields)
		}
		if opts.CheckpointPath != "" && (step%opts.CheckpointEvery == 0 || step == opts.Steps || stopping) {
			_ = checkpoint.SaveITE(opts.CheckpointPath, &checkpoint.ITECheckpoint{
				Step:       step,
				Seed:       opts.Seed,
				Energies:   res.Energies,
				MeasuredAt: res.MeasuredAt,
				SymState:   state,
			})
		}
		if opts.AfterStep != nil {
			opts.AfterStep(step)
		}
		if stopping {
			telemetry.Publish("ite.stop", step, nil)
			break
		}
	}
	res.Final = state.ToDense()
	res.FinalSym = state
	return res
}
