(* What is needed to reproduce a result: the source revision and
   whether the tree was clean, the compiler, the host and the inputs. *)

(* First line of a command's standard output, or [None] if it cannot
   be run or exits non-zero. *)
let first_line prog args =
  match Unix.open_process_args_in prog (Array.of_list (prog :: args)) with
  | exception Unix.Unix_error _ -> None
  | ic -> (
      (* Read to the end, so the command never dies on a closed pipe. *)
      let out = In_channel.input_all ic in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> Some (List.hd (String.split_on_char '\n' out))
      | _ -> None)

(* Git facts only when the working directory is itself the top of a
   git checkout — never those of an enclosing repository. *)
let git () =
  let here = Sys.getcwd () in
  match first_line "git" [ "rev-parse"; "--show-toplevel" ] with
  | Some top when top = here ->
      let describe = first_line "git" [ "describe"; "--always"; "--dirty" ] in
      let clean =
        match first_line "git"
            [ "--no-optional-locks"; "status"; "--porcelain"; "--untracked-files=no" ] with
        | Some "" -> Some true
        | Some _ -> Some false
        | None -> None
      in
      (describe, clean)
  | _ -> (None, None)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let to_json ~workload ~seed ~seconds ~trace =
  let describe, clean = git () in
  let opt f = function Some v -> f v | None -> "null" in
  Printf.sprintf
    "{\"git\": %s, \"clean\": %s, \"ocaml\": %s, \"nproc\": %d, \"host\": %s, \
     \"workload\": %s, \"seed\": %d, \"seconds\": %d, \"trace\": %b, \"jobs\": 1}"
    (opt json_string describe) (opt string_of_bool clean)
    (json_string Sys.ocaml_version)
    (Domain.recommended_domain_count ())
    (json_string (Unix.gethostname ()))
    (json_string workload) seed seconds trace
