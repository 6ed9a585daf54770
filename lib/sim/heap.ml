(* Three flat arrays: the keys in a [float array] (unboxed float
   storage, no per-entry record allocation), the FIFO tie-break
   sequence numbers and the payloads in [int array]s.  No array holds
   a pointer, so sifting runs no write barrier.  Sifting moves a hole
   instead of swapping: one write per level per array. *)

type t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable values : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 64) () =
  let cap = Stdlib.max 1 capacity in
  {
    keys = Array.make cap 0.;
    seqs = Array.make cap 0;
    values = Array.make cap 0;
    size = 0;
    next_seq = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

let grow t =
  let cap = 2 * t.size in
  let keys = Array.make cap 0. in
  Array.blit t.keys 0 keys 0 t.size;
  t.keys <- keys;
  let seqs = Array.make cap 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  t.seqs <- seqs;
  let values = Array.make cap 0 in
  Array.blit t.values 0 values 0 t.size;
  t.values <- values

(* Move the hole at [i] up while the pushed (key, seq) sorts before the
   parent, then drop the element in. *)
let sift_up t i key seq v =
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pk = t.keys.(parent) in
    if key < pk || (key = pk && seq < t.seqs.(parent)) then begin
      t.keys.(!i) <- pk;
      t.seqs.(!i) <- t.seqs.(parent);
      t.values.(!i) <- t.values.(parent);
      i := parent
    end
    else moving := false
  done;
  t.keys.(!i) <- key;
  t.seqs.(!i) <- seq;
  t.values.(!i) <- v

(* Move the hole at the root down along the smaller-child path until
   the last element (key, seq, v at index [size]) fits, then drop it
   in.  Reading the element here rather than taking it as arguments
   keeps its key unboxed. *)
let sift_down_last t =
  let n = t.size in
  let key = t.keys.(n) and seq = t.seqs.(n) and v = t.values.(n) in
  let i = ref 0 in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let r = l + 1 in
      let c =
        if
          r < n
          && (t.keys.(r) < t.keys.(l)
             || (t.keys.(r) = t.keys.(l) && t.seqs.(r) < t.seqs.(l)))
        then r
        else l
      in
      if t.keys.(c) < key || (t.keys.(c) = key && t.seqs.(c) < seq) then begin
        t.keys.(!i) <- t.keys.(c);
        t.seqs.(!i) <- t.seqs.(c);
        t.values.(!i) <- t.values.(c);
        i := c
      end
      else moving := false
    end
  done;
  t.keys.(!i) <- key;
  t.seqs.(!i) <- seq;
  t.values.(!i) <- v

let push t key value =
  if t.size = Array.length t.keys then grow t;
  let i = t.size in
  t.size <- i + 1;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  sift_up t i key seq value

let pop_into t cell =
  if t.size = 0 then invalid_arg "Heap.pop_into: empty heap";
  cell.(0) <- t.keys.(0);
  let v = t.values.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then sift_down_last t;
  v

let min_le t cell = t.size > 0 && t.keys.(0) <= cell.(0)

let pop t =
  if t.size = 0 then None
  else begin
    let cell = [| 0. |] in
    let v = pop_into t cell in
    Some (cell.(0), v)
  end

let peek t = if t.size = 0 then None else Some (t.keys.(0), t.values.(0))
let clear t = t.size <- 0

let to_sorted_list t =
  let copy =
    {
      keys = Array.copy t.keys;
      seqs = Array.copy t.seqs;
      values = Array.copy t.values;
      size = t.size;
      next_seq = t.next_seq;
    }
  in
  let rec drain acc =
    match pop copy with None -> List.rev acc | Some kv -> drain (kv :: acc)
  in
  drain []
