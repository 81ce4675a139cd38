(* Shared diagnostics renderer.

   Factored out of the PR-3 [Lint] module so that every analysis pass —
   static data lint and the dynamic race sanitizer alike — speaks one
   text format and one JSON schema.  Keep this module dependency-free:
   [Pmi_parallel.Pool] and [Pmi_measure.Harness] link against it, so
   anything heavier would create a cycle. *)

type severity =
  | Error
  | Warning

type t = {
  rule : string;
  severity : severity;
  subject : string;
  message : string;
}

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"

let make rule severity subject fmt =
  Printf.ksprintf (fun message -> { rule; severity; subject; message }) fmt

let to_string d =
  Printf.sprintf "%s[%s] %s: %s" (severity_to_string d.severity) d.rule
    d.subject d.message

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\t' -> Buffer.add_string buf "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json d =
  Printf.sprintf
    "{\"rule\": \"%s\", \"severity\": \"%s\", \"subject\": \"%s\", \
     \"message\": \"%s\"}"
    (json_escape d.rule)
    (severity_to_string d.severity)
    (json_escape d.subject)
    (json_escape d.message)

let errors diags = List.filter (fun d -> d.severity = Error) diags

let print_all ~json diags =
  List.iter
    (fun d -> print_endline (if json then to_json d else to_string d))
    diags

let summary ~pass diags =
  let errs = List.length (errors diags) in
  let warns = List.length diags - errs in
  Printf.sprintf "%s: %d error(s), %d warning(s)" pass errs warns
