type kind =
  | Bad_magic
  | Corrupt_record
  | Truncated
  | Lost_reference
  | Parse_error
  | Budget_exceeded
  | Batch_abandoned
  | Checkpoint_corrupt

let kind_name = function
  | Bad_magic -> "bad_magic"
  | Corrupt_record -> "corrupt_record"
  | Truncated -> "truncated"
  | Lost_reference -> "lost_reference"
  | Parse_error -> "parse_error"
  | Budget_exceeded -> "budget_exceeded"
  | Batch_abandoned -> "batch_abandoned"
  | Checkpoint_corrupt -> "checkpoint_corrupt"

type t = {
  kind : kind;
  offset : int option;
  line : int option;
  detail : string;
}

let v ?offset ?line kind detail = { kind; offset; line; detail }

let to_string a =
  let where =
    match (a.offset, a.line) with
    | Some o, _ -> Printf.sprintf "offset %d: " o
    | None, Some l -> Printf.sprintf "line %d: " l
    | None, None -> ""
  in
  Printf.sprintf "%s%s: %s" where (kind_name a.kind) a.detail

(* --- error budgets --- *)

type budget = Unlimited | Max_records of int | Max_fraction of float

let budget_of_string s =
  let s = String.trim s in
  match String.lowercase_ascii s with
  | "none" | "unlimited" -> Ok Unlimited
  | _ ->
    let n = String.length s in
    if n > 1 && s.[n - 1] = '%' then
      match float_of_string_opt (String.sub s 0 (n - 1)) with
      | Some p when p >= 0.0 && p <= 100.0 -> Ok (Max_fraction (p /. 100.0))
      | _ -> Error (Printf.sprintf "bad percentage %S (want 0-100%%)" s)
    else
      match int_of_string_opt s with
      | Some k when k >= 0 -> Ok (Max_records k)
      | _ -> Error (Printf.sprintf "bad record budget %S (want a count, a percentage, or \"none\")" s)

let budget_to_string = function
  | Unlimited -> "none"
  | Max_records k -> string_of_int k
  | Max_fraction f -> Printf.sprintf "%g%%" (100.0 *. f)

(* Fractional budgets can only be judged against a known denominator,
   so they are checked at end of stream ([final = true]); absolute
   budgets trip as soon as they are crossed. *)
let budget_allows budget ~bad ~total ~final =
  match budget with
  | Unlimited -> true
  | Max_records k -> bad <= k
  | Max_fraction f ->
    (not final) || bad = 0 || float_of_int bad <= (f *. float_of_int (max total 1))

(* --- run completeness --- *)

type completeness = {
  events_read : int;
  records_skipped : int;
  corrupt_regions : int;
  bytes_skipped : int;
  batches_retried : int;
  shards_failed : int;
  events_abandoned : int;
  truncated : bool;
  resumed_from : string option;
  anomalies : t list;
}

let max_kept_anomalies = 32

let clean ~events_read =
  {
    events_read;
    records_skipped = 0;
    corrupt_regions = 0;
    bytes_skipped = 0;
    batches_retried = 0;
    shards_failed = 0;
    events_abandoned = 0;
    truncated = false;
    resumed_from = None;
    anomalies = [];
  }

let is_clean c =
  c.records_skipped = 0 && c.corrupt_regions = 0 && c.bytes_skipped = 0
  && c.batches_retried = 0 && c.shards_failed = 0 && c.events_abandoned = 0
  && (not c.truncated) && c.anomalies = []

(* Pointwise sum, for combining producer-side and engine-side accounts
   of one run (or a resumed run with its checkpointed prefix).
   [resumed_from] keeps the earliest provenance; the anomaly list is
   concatenated and capped. *)
let merge a b =
  {
    events_read = a.events_read + b.events_read;
    records_skipped = a.records_skipped + b.records_skipped;
    corrupt_regions = a.corrupt_regions + b.corrupt_regions;
    bytes_skipped = a.bytes_skipped + b.bytes_skipped;
    batches_retried = a.batches_retried + b.batches_retried;
    shards_failed = a.shards_failed + b.shards_failed;
    events_abandoned = a.events_abandoned + b.events_abandoned;
    truncated = a.truncated || b.truncated;
    resumed_from = (match a.resumed_from with Some _ -> a.resumed_from | None -> b.resumed_from);
    anomalies =
      (let all = a.anomalies @ b.anomalies in
       let rec take n = function
         | [] -> []
         | _ when n = 0 -> []
         | x :: tl -> x :: take (n - 1) tl
       in
       take max_kept_anomalies all);
  }
