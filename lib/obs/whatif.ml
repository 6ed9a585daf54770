module CS = Xc_platforms.Cluster_sim
module Mechanism = Xc_trace.Mechanism
module Price = Xc_platforms.Price

type t = { mech : Mechanism.t; scale : float }

let max_scale = 10.
let ( let* ) = Result.bind

let validate w =
  if not (Float.is_finite w.scale) then Error "scale must be a finite number"
  else if w.scale < 0. || w.scale > max_scale then
    Error (Printf.sprintf "scale must be in [0, %g], got %g" max_scale w.scale)
  else Ok ()

let make ~mech ~scale =
  let* mech = Mechanism.of_string mech in
  let w = { mech; scale } in
  let* () = validate w in
  Ok w

let float_to_string v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let rec go p =
      if p > 17 then Printf.sprintf "%.17g" v
      else
        let s = Printf.sprintf "%.*g" p v in
        if float_of_string s = v then s else go (p + 1)
    in
    go 1

let to_string w =
  Printf.sprintf "%s x%s" (Mechanism.to_string w.mech) (float_to_string w.scale)

let parse s =
  let s = String.trim s in
  (* "MECH xS" (the canonical form), "MECH:S" or "MECH=S".  A bare "x"
     separator without the space would be ambiguous: mechanism names
     themselves contain 'x' (ctx-switch). *)
  let split =
    match List.find_map (String.index_opt s) [ ':'; '=' ] with
    | Some i -> Some (i, 1)
    | None -> (
        match String.index_opt s ' ' with
        | Some i when i + 1 < String.length s ->
            Some (i, if s.[i + 1] = 'x' then 2 else 1)
        | _ -> None)
  in
  match split with
  | None ->
      Error
        (Printf.sprintf
           "expected MECH xSCALE, MECH:SCALE or MECH=SCALE, got %S" s)
  | Some (i, skip) -> (
      let mech = String.trim (String.sub s 0 i) in
      let rest =
        String.trim (String.sub s (i + skip) (String.length s - i - skip))
      in
      match float_of_string_opt rest with
      | None -> Error (Printf.sprintf "bad scale %S in %S" rest s)
      | Some scale -> make ~mech ~scale)

let scale_rows ws rows =
  List.fold_left (fun rows w -> Price.scale w.mech w.scale rows) rows ws

let apply_cluster w (c : CS.config) =
  let* () = validate w in
  match w.mech with
  | Ctx_switch ->
      let cswitch = c.CS.container_switch_ns and pswitch = c.CS.process_switch_ns in
      Ok
        {
          c with
          CS.container_switch_ns =
            (fun ~runnable -> w.scale *. cswitch ~runnable);
          process_switch_ns = w.scale *. pswitch;
        }
  | Net_hop -> Ok { c with CS.client_rtt_ns = w.scale *. c.CS.client_rtt_ns }
  | Cpu | Syscall_entry | Syscall_work | Irq ->
      if Array.length c.CS.request_mech = 0 then
        Error
          (Printf.sprintf
             "mechanism %s needs per-stage pricing, but this config has no \
              request_mech rows (price it with config_of_platform)"
             (Mechanism.to_string w.mech))
      else
        let request_mech =
          Array.map (Price.scale w.mech w.scale) c.CS.request_mech
        in
        Ok
          {
            c with
            CS.request_mech;
            stage_cpu_ns = Array.map Price.sum request_mech;
          }

let apply_cluster_all ws config =
  List.fold_left
    (fun acc w ->
      let* c = acc in
      apply_cluster w c)
    (Ok config) ws
