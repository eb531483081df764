module Model = Dpm_ctmdp.Model

let add_int buf i = Buffer.add_int64_le buf (Int64.of_int i)
let add_float buf x = Buffer.add_int64_le buf (Int64.bits_of_float x)

(* Canonical rate list: zero rates dropped (they cannot affect any
   solver), sorted by target then by the rate's bit pattern, duplicate
   targets summed left-to-right in that order.  Float addition is
   commutative but not associative, so fixing the summand order makes
   the merged value a function of the rate multiset alone. *)
let canonical_rates rates =
  let rates = List.filter (fun (_, r) -> r <> 0.0) rates in
  let rates =
    List.sort
      (fun (j1, r1) (j2, r2) ->
        match compare (j1 : int) j2 with
        | 0 -> Int64.compare (Int64.bits_of_float r1) (Int64.bits_of_float r2)
        | c -> c)
      rates
  in
  let rec merge = function
    | (j1, r1) :: (j2, r2) :: rest when j1 = j2 -> merge ((j1, r1 +. r2) :: rest)
    | pair :: rest -> pair :: merge rest
    | [] -> []
  in
  merge rates

let encode_model buf m =
  let n = Model.num_states m in
  add_int buf n;
  for i = 0 to n - 1 do
    let cs =
      List.sort
        (fun a b -> compare a.Model.action b.Model.action)
        (Model.choices m i)
    in
    add_int buf (List.length cs);
    List.iter
      (fun c ->
        add_int buf c.Model.action;
        add_float buf c.Model.cost;
        let rs = canonical_rates c.Model.rates in
        add_int buf (List.length rs);
        List.iter
          (fun (j, r) ->
            add_int buf j;
            add_float buf r)
          rs)
      cs
  done

let model m =
  let buf = Buffer.create 1024 in
  encode_model buf m;
  Buffer.contents buf

let magic = "dpmc2"

let key m =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf magic;
  encode_model buf m;
  Buffer.contents buf

(* FNV-1a over [s] from byte [pos] on. *)
let fnv1a ~pos s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  for i = pos to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) prime
  done;
  !h

let key_hash k = fnv1a ~pos:(String.length magic) k
let model_hash m = fnv1a ~pos:0 (model m)
