(** The bench harness's phase list.

    [bench/main.exe] takes its [--only] vocabulary from {!names} and
    cross-checks every [timed_phase] call against it at runtime, so the
    list cannot drift from the phases the harness actually runs. *)

val names : string list
(** All phase names, in bench execution order. *)
