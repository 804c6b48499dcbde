(** The artefact registry: one record per Sect. 5 artefact of the
    paper (Tables 2-4, Figs. 1-4, Sect. 3.5) and per extension of that
    study. The CLI builds one experiment subcommand per record and the
    bench harness runs the same list; its checks are the harness's
    exit status, so a qualitative check is also the CI gate. *)

type outcome = {
  text : string;  (** The rendered table(s), newline-terminated. *)
  checks : (string * bool) list;
      (** Qualitative checks, [(label, holds)]; [bench] exits 1 when
          any fails. *)
  json : Stochobs.Json.t option;
      (** The machine-readable artefact [bench --out] writes. *)
}

type t = {
  name : string;  (** CLI subcommand and bench argument. *)
  title : string;  (** Bench section heading. *)
  doc : string;  (** CLI help line. *)
  run : quick:bool -> log:Stochobs.Log.t -> outcome;
      (** [quick] selects {!Config.quick} (and the artefact's own
          reduced sizes) instead of {!Config.paper}; [log] receives
          progress lines from the artefacts that report any. *)
}

val all : t list
(** Every artefact, in the order the bench harness prints them. Names
    are unique. Table 4's check reads Table 2's Brute-Force column;
    both share one Table 2 run per configuration and process. *)
