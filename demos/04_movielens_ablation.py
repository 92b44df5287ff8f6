"""The eight-variant ablation matrix on MovieLens-100K.

Needs the raw ratings file (u.data) from the MovieLens-100K archive at
data/ml-100k/u.data (or point PMLAM_ML100K at it). Ratings of four and above
become positives, light users and items are filtered out, and each variant
trains on fold 0 of the five-fold split. Expect a couple of minutes per
variant per seed on one core at these settings.
"""

import os
import sys

from pmlam.cli import main

path = os.environ.get("PMLAM_ML100K", "data/ml-100k/u.data")
if not os.path.exists(path):
    sys.exit(f"ratings file not found at {path}; download the MovieLens-100K "
             "archive and unpack u.data there (or set PMLAM_ML100K)")

out_dir = "ml100k-prepared"
# a directory without its seal (SHA256SUMS) is prepared again
if not os.path.exists(os.path.join(out_dir, "SHA256SUMS")):
    main(["prepare", path, out_dir, "--rating-threshold", "4",
          "--min-user", "10", "--min-item", "5", "--seed", "0"])

# Denser than the datasets the defaults target, so the similarity threshold
# is raised to keep the neighbor graphs sparse.
main(["ablate", out_dir, "--seeds", "0,1,2", "--epochs", "60",
      "--sim-threshold", "0.4", "--out", "ml100k-ablation.csv"])
print("wrote ml100k-ablation.csv")
