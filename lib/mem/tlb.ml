type t = {
  capacity : int;
  entries : (int, bool) Hashtbl.t; (* vpn -> global *)
  mutable hits : int;
  mutable misses : int;
  mutable cr3_switches : int;
  mutable full_flushes : int;
  mutable lcg : int; (* deterministic replacement choice *)
}

let create ?(capacity = 1536) () =
  {
    capacity;
    entries = Hashtbl.create capacity;
    hits = 0;
    misses = 0;
    cr3_switches = 0;
    full_flushes = 0;
    lcg = 0x2545F491;
  }

let capacity t = t.capacity
let resident t = Hashtbl.length t.entries

let next_lcg t =
  t.lcg <- ((t.lcg * 1103515245) + 12345) land 0x3FFFFFFF;
  t.lcg

let evict_one t =
  (* Random replacement: walk to a pseudo-random position. *)
  let n = Hashtbl.length t.entries in
  if n > 0 then begin
    let target = next_lcg t mod n in
    let i = ref 0 in
    let victim = ref None in
    (try
       Hashtbl.iter
         (fun vpn _ ->
           if !i = target then begin
             victim := Some vpn;
             raise Exit
           end;
           incr i)
         t.entries
     with Exit -> ());
    match !victim with Some vpn -> Hashtbl.remove t.entries vpn | None -> ()
  end

let mem_tlb_misses = Xc_sim.Metrics.counter ~cat:"mem" ~name:"tlb-misses"

let access t ~vpn ~global =
  if Hashtbl.mem t.entries vpn then begin
    t.hits <- t.hits + 1;
    `Hit
  end
  else begin
    t.misses <- t.misses + 1;
    Xc_sim.Metrics.counter_incr mem_tlb_misses;
    if Hashtbl.length t.entries >= t.capacity then evict_one t;
    Hashtbl.replace t.entries vpn global;
    `Miss
  end

let mem_tlb_flushes = Xc_sim.Metrics.counter ~cat:"mem" ~name:"tlb-flushes"

let switch_cr3 t =
  t.cr3_switches <- t.cr3_switches + 1;
  Xc_sim.Metrics.counter_incr mem_tlb_flushes;
  let non_global =
    Hashtbl.fold (fun vpn global acc -> if global then acc else vpn :: acc) t.entries []
  in
  List.iter (Hashtbl.remove t.entries) non_global

let flush_all t =
  t.full_flushes <- t.full_flushes + 1;
  Xc_sim.Metrics.counter_incr mem_tlb_flushes;
  Hashtbl.reset t.entries

let flush_page t ~vpn = Hashtbl.remove t.entries vpn
let hits t = t.hits
let misses t = t.misses
let cr3_switches t = t.cr3_switches
let full_flushes t = t.full_flushes

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0;
  t.cr3_switches <- 0;
  t.full_flushes <- 0
