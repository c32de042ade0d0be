(** Experiment registry: every table of the paper's evaluation plus the
    extra ablations, in paper order. *)

type spec = {
  id : string;  (** table/figure identifier, "1" .. "12" *)
  title : string;
  table : Context.t -> Report.Table.t;
}

exception Unknown_experiment of string

val all : spec list

val aliases : (string * string) list
(** Mnemonic aliases accepted by {!find} (e.g. ["strategy-comparison"]). *)

val find : string -> spec
(** Lookup by id or alias; raises {!Unknown_experiment}. *)

type outcome = {
  spec : spec;
  table : Report.Table.t;  (** structured rows, for JSON reports *)
  wall_seconds : float;
  fresh_warnings : Ir.Diag.t list;
      (** degradation warnings first recorded while this table was built
          (already surfaced immediately through [Obs.Log]) *)
}

val run_spec : Context.t -> spec -> outcome
(** Build one table inside a ["table"] span, timing it. *)
