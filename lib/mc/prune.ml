(* The one operating mode of the static pre-deciders, and the trailing
   batch every client runs its statically-dead covers through.  See
   prune.mli. *)

type t = On | Off | Audit

let to_string = function On -> "on" | Off -> "off" | Audit -> "audit"

let of_string = function
  | "on" -> Some On
  | "off" -> Some Off
  | "audit" -> Some Audit
  | _ -> None

type 'a dead = {
  analysis : string;
  cover : string;
  lits : (Hdl.Netlist.signal * bool) list;
  item : 'a;
}

let unsound d =
  failwith (Printf.sprintf "%s unsound: %s is reachable" d.analysis d.cover)

let run_deferred mode ~check ~reachable batch =
  match mode with
  | On -> ()
  | Off | Audit ->
    List.iter
      (fun d ->
        match check d.lits with
        | Checker.Reachable _ -> if mode = Audit then unsound d else reachable d
        | Checker.Unreachable _ | Checker.Undetermined -> ())
      batch
