package main

// streamLayers reduces a traced stream run to its per-layer metrics:
// means per steady-state tick over every episode, except where a name
// says otherwise (ckpt_* per persisted checkpoint, hook_ns per hook,
// refit_us per call, drift evictions and recovery per episode).
func streamLayers(eps []*episode) map[string]float64 {
	var (
		n                                float64
		advance, self, hookNs, hooks     float64
		kinds                            [numHookKinds]float64
		meterNs, samples                 float64
		consume, sink, store             float64
		walWrite, walBytes, walSync      float64
		ckptNs, ckptBytes, ckpts         float64
		allocB, allocN                   float64
		records, tick, accounted         float64
		refits                           [3]float64
		refitUs, evictions               []float64
		recOpen, recReplay, recCatch, rp []float64
	)
	for _, ep := range eps {
		for i, tt := range ep.ticks {
			if tt.Tick <= ep.steadyFrom || i == 0 {
				continue
			}
			a := &tt.Acc
			n++
			hn, hns := a.hookBusy()
			adv := float64(tt.T1 - tt.T0)
			advance += adv
			hookNs += float64(hns)
			hooks += float64(hn)
			self += adv - float64(hns) - float64(a.meterAdvance.Ns)
			for k := range kinds {
				kinds[k] += float64(a.hooks[k].N)
			}
			meterNs += float64(a.meterAdvance.Ns + a.meterConsume.Ns)
			samples += float64(a.meterSamples)
			consume += float64(tt.T2-tt.T1) - float64(a.sink.Ns)
			sink += float64(a.sink.Ns)
			store += float64(a.sink.Ns - a.fsBusy())
			walWrite += float64(a.walWrite.Ns)
			walBytes += float64(a.walBytes)
			walSync += float64(a.walSync.Ns)
			ckptNs += float64(a.ckpt.Ns)
			ckptBytes += float64(a.ckptBytes)
			ckpts += float64(a.ckptsPersisted)
			allocB += float64(tt.AllocBytes)
			allocN += float64(tt.AllocObjects)
			records += float64(tt.Records - ep.ticks[i-1].Records)
			root := tt.root()
			tick += float64(root.Busy)
			accounted += float64(root.Busy - root.self())
		}
		for k := range refits {
			refits[k] += float64(ep.refits[k])
		}
		refitUs = append(refitUs, ep.refitUs)
		evictions = append(evictions, float64(ep.evictions))
		if ep.recoveryAttempted && !ep.recoveryFailed {
			recOpen = append(recOpen, ep.recOpenMs)
			recReplay = append(recReplay, ep.recReplay)
			recCatch = append(recCatch, ep.recCatchup)
			rp = append(rp, float64(ep.replayed))
		}
	}
	per := func(x float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	return map[string]float64{
		"sim.advance_us":          per(advance) / 1e3,
		"sim.self_us":             per(self) / 1e3,
		"core.hook_us":            per(hookNs) / 1e3,
		"core.hooks":              per(hooks),
		"core.hook_ns":            ratio(hookNs, hooks),
		"core.interrupts":         per(kinds[hookInterrupt]),
		"core.switches":           per(kinds[hookSwitch]),
		"core.binds":              per(kinds[hookBind]),
		"core.io":                 per(kinds[hookIO]),
		"core.forks":              per(kinds[hookFork]),
		"power.meter_us":          per(meterNs) / 1e3,
		"power.samples":           per(samples),
		"align.refits":            per(refits[0]),
		"align.rejected":          per(refits[1]),
		"align.fallbacks":         per(refits[2]),
		"align.refit_us":          median(refitUs),
		"stream.consume_us":       per(consume) / 1e3,
		"stream.records":          per(records),
		"stream.drift_evictions":  median(evictions),
		"stream.sink_us":          per(sink) / 1e3,
		"stream.store_us":         per(store) / 1e3,
		"durable.wal_write_us":    per(walWrite) / 1e3,
		"durable.wal_bytes":       per(walBytes),
		"durable.wal_sync_us":     per(walSync) / 1e3,
		"durable.ckpt_ms":         ratio(ckptNs, ckpts) / 1e6,
		"durable.ckpt_bytes":      ratio(ckptBytes, ckpts),
		"runtime.alloc_kb":        per(allocB) / 1e3,
		"runtime.mallocs":         per(allocN),
		"recovery.open_ms":        median(recOpen),
		"recovery.replay_ms":      median(recReplay),
		"recovery.replayed_ticks": median(rp),
		"recovery.catchup_ms":     median(recCatch),
		"trace.tick_us":           per(tick) / 1e3,
		"trace.accounted_pct":     100 * ratio(accounted, tick),
	}
}
