(* The trace store: every consumer of a recorded execution (driver,
   experiments, memo layer, paging) traffics in this type, which is the
   run-length/delta-compressed [Ctrace] store.  The VM streams blocks
   straight into the compressing builder, so peak residency is the
   compressed size.

   Telemetry: every recording bumps four gauges — trace.runs,
   trace.raw_bytes, trace.compressed_bytes and
   trace.peak_resident_bytes.  raw/compressed accumulate what the
   recording would occupy as a plain 8-byte-per-block code vector vs
   what it actually stores, so their ratio is the live compression
   ratio; peak_resident accumulates the stored bytes of every trace
   recorded (traces are memoized for a whole run and never freed, so the
   running total is the peak).  A module mutex serializes the
   read-modify-write: recordings can race across domains. *)

include Ctrace

type stats = {
  st_runs : int;
  st_blocks : int;
  st_raw_bytes : int; (* plain code-vector footprint of this trace *)
  st_stored_bytes : int; (* what the compressed store actually holds *)
}

let stats t =
  {
    st_runs = runs t;
    st_blocks = dyn_blocks t;
    st_raw_bytes = raw_bytes t;
    st_stored_bytes = compressed_bytes t;
  }

let g_runs =
  Obs.Metrics.gauge "trace.runs"
    ~help:"sequential fetch runs across all recorded traces"

let g_raw =
  Obs.Metrics.gauge "trace.raw_bytes"
    ~help:"plain (8 bytes/block) footprint of all recorded traces"

let g_compressed =
  Obs.Metrics.gauge "trace.compressed_bytes"
    ~help:"bytes actually stored for all recorded traces"

let g_peak =
  Obs.Metrics.gauge "trace.peak_resident_bytes"
    ~help:
      "peak bytes of live trace store (traces are memoized per run, so \
       this is the running total of stored bytes)"

let metrics_lock = Mutex.create ()

let note t =
  if Obs.Metrics.enabled () then begin
    let s = stats t in
    Mutex.lock metrics_lock;
    let bump g by =
      Obs.Metrics.set g (Obs.Metrics.gauge_value g +. float_of_int by)
    in
    bump g_runs s.st_runs;
    bump g_raw s.st_raw_bytes;
    bump g_compressed s.st_stored_bytes;
    bump g_peak s.st_stored_bytes;
    Mutex.unlock metrics_lock
  end

let record ?fuel prog input =
  let t = Ctrace.record ?fuel prog input in
  note t;
  t
