(** Scaled-up workload variants: [apply ~scale] grows a benchmark's code
    footprint and trace length by welding a generated auxiliary program
    onto its AST — switch-based DFA evaluators, a [4*scale]-deep call
    chain, a wide classifier switch and extra {!Libc.surface} routines,
    all driven from a wrapper entry that finally runs the original
    program.

    The auxiliary code does no I/O and the wrapper returns exactly the
    original entry's value, so a scaled benchmark consumes the same
    inputs and produces the same outputs as the original; only the
    instruction-fetch behavior changes. *)

val apply : scale:int -> Bench.t -> Bench.t
(** Identity for [scale <= 1].  Generated functions carry the [xscale_]
    and [xlib_] name prefixes. *)
