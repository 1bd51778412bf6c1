(** Resource-invariant probes.

    After any sort — successful or aborted by a device fault — the
    session's memory accounting must return to zero: no component may
    still hold budget blocks and no arena owner may still hold frames.
    A leak here is invisible to output validation (the document can be
    perfectly sorted while a window lease was never released), so the
    fuzz driver checks it separately after every case.

    [install] hooks {!Nexsort.Session.add_destroy_probe}, so the checks
    run inside [Session.destroy] on every exit path the sorter takes.
    Violations are recorded, not raised: destroy runs inside
    [Fun.protect] finalizers, where raising would mask the original
    fault. *)

val install : unit -> unit
(** Register the teardown probe (idempotent). *)

val check_session : Nexsort.Session.t -> string list
(** The invariant violations visible on a session right now: budget
    blocks still reserved (with holder names) and arena owners with
    [held <> 0].  Empty on a clean teardown. *)

val violations : unit -> string list
(** Violations recorded by the installed probe since the last {!clear},
    oldest first. *)

val clear : unit -> unit
