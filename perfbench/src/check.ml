(* The correctness check: reference digests, and the failed cells of a
   run's passes. *)

(* Reference digests: "WORKLOAD CELL DIGEST" lines, [#] comments.
   Raises [Failure] on a malformed line. *)
let parse_reference text =
  String.split_on_char '\n' text
  |> List.filter_map (fun l ->
         let l = String.trim l in
         if l = "" || l.[0] = '#' then None
         else
           match String.split_on_char ' ' l with
           | [ w; c; d ] -> Some ((w, c), d)
           | _ -> failwith ("malformed reference line: " ^ l))

(* Failed cells of [workload] with their reasons, given each pass's
   outcomes (the first pass first): invariants on every pass, the same
   digest on every pass, and the reference digest if one applies. *)
let failures ~workload ~reference passes =
  List.filter_map
    (fun (o : Workloads.outcome) ->
      let per_pass outcomes =
        let o' =
          List.find (fun (x : Workloads.outcome) -> x.Workloads.cell = o.Workloads.cell) outcomes
        in
        o'.Workloads.problems
        @ if o'.Workloads.digest <> o.Workloads.digest then [ "digest differs between passes" ]
          else []
      in
      let against_reference =
        match reference with
        | None -> []
        | Some r -> (
            match List.assoc_opt (workload, o.Workloads.cell) r with
            | Some d when d = o.Workloads.digest -> []
            | Some d -> [ Printf.sprintf "digest %s, reference %s" o.Workloads.digest d ]
            | None -> [ "no reference digest" ])
      in
      match List.sort_uniq compare (List.concat_map per_pass passes @ against_reference) with
      | [] -> None
      | rs -> Some (o.Workloads.cell, rs))
    (List.hd passes)
