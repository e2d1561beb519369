(* NaN-boxing (paper section 2).

   A shadowed value is a signaling NaN whose payload encodes the index of
   the shadow value in FPVM's arena:

     63   62........52  51     50    49............0
     sign  exp=0x7FF    qnan=0 tag=1 arena index

   qnan (bit 51) clear makes it signaling, so consuming it in any
   arithmetic instruction raises #IA and lands in FPVM. Bit 50 is FPVM's
   ownership tag: a signaling NaN without it is a "universal NaN" that
   the program itself produced (0/0 etc.) and is treated as a genuine
   NaN, not dereferenced. 50 bits of index remain - comfortably more
   than the 48-bit user address spaces the paper leans on. *)

let exp_mask = 0x7FF0000000000000L
let qnan_bit = 0x0008000000000000L
let tag_bit = 0x0004000000000000L
let index_mask = 0x0003FFFFFFFFFFFFL

let max_index = Int64.to_int index_mask

let box (index : int) : int64 =
  if index < 0 || index > max_index then invalid_arg "Nanbox.box: index";
  Int64.logor exp_mask (Int64.logor tag_bit (Int64.of_int index))

let is_boxed (bits : int64) =
  Int64.equal (Int64.logand bits exp_mask) exp_mask
  && Int64.equal (Int64.logand bits qnan_bit) 0L
  && not (Int64.equal (Int64.logand bits tag_bit) 0L)

let unbox (bits : int64) : int =
  Int64.to_int (Int64.logand bits index_mask)

(* A signaling NaN that is NOT ours: the program's own ("universal")
   NaN. *)
let is_foreign_snan bits =
  Int64.equal (Int64.logand bits exp_mask) exp_mask
  && Int64.equal (Int64.logand bits qnan_bit) 0L
  && Int64.equal (Int64.logand bits tag_bit) 0L
  && not (Int64.equal (Int64.logand bits 0x000FFFFFFFFFFFFFL) 0L)
