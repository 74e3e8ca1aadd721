"""Data substrate: the synthetic San Francisco phone directory.

The paper evaluates on the SF White Pages (282,965 records of
``name / phone number``), which is proprietary and unavailable.  Per
DESIGN.md we substitute a deterministic synthetic generator whose name
pools are calibrated to the paper's reported statistics:

* the most frequent letters come out A, E, N, R, I, O (paper Table 1);
* the most frequent digrams include AN, ER, AR, ON, IN and the most
  frequent trigrams CHA, MAR, SON, ONG, ANG;
* a heavy share of (often short) Asian surnames — YU, OU, IP, BA, WU,
  LI, LE, WOO, KAY, KIM, LEE, SEE, MAI, LIM, MAK, LEW — which the
  paper identifies as the source of almost all false positives.

Records follow the paper's Figure 4 exactly:
``SURNAME GIVEN%%%…%%%415-409-XXXX$$`` with the phone number as RID.
"""

from repro.data.corpus import (
    NAME_FIELD_WIDTH,
    format_record,
    parse_record,
)
from repro.data.phonebook import Directory, PhonebookEntry, generate_directory

__all__ = [
    "Directory",
    "PhonebookEntry",
    "generate_directory",
    "format_record",
    "parse_record",
    "NAME_FIELD_WIDTH",
]
